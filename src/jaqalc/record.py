"""Plain slotted records: a subclass names its fields in ``__slots__`` and
writes its own ``__init__``; no code is generated.  Records of one class
are equal, and hash equal, when the fields that class names are equal; a
base class's fields, such as a statement's position, take no part."""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        key = attrgetter(*cls.__slots__)

        def __eq__(self, other):
            if type(other) is cls:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"
