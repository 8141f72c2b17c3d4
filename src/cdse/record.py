"""Plain value classes: the fields are the class's own annotations, in order.

Record stands in for ``dataclasses.dataclass`` on cdse's expression nodes,
reports and system descriptions.  Its methods are written once here rather
than generated per class, so importing cdse loads neither ``dataclasses``
nor the ``inspect`` machinery behind it.
"""


class fresh:
    """Field default built anew for each instance, such as ``fresh(dict)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


class Record:
    """Positional or keyword construction; a class attribute named like a
    field is its default.  Equal only to an instance of the same class with
    equal fields, and printed as ``Cls(field=value, ...)``."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields
                         if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} "
                            f"arguments, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                d = cls._defaults[name]
                values[name] = d.make() if isinstance(d, fresh) else d
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {min(kwargs)!r}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # field by field with an explicit stack, so a long chain of nested
        # records (a flat sum of many terms) is clear of the recursion limit
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            if (x.__class__ is y.__class__ and isinstance(x, Record)
                    and x.__class__.__eq__ is Record.__eq__):
                todo.extend(zip(x._values(), y._values()))
            elif not x == y:
                return False
        return True

    def __repr__(self) -> str:
        # pieces are (text, True) written as they are or (value, False)
        # still to print; nested records are opened on the same stack
        out, todo = [], [(self, False)]
        while todo:
            item, written = todo.pop()
            if written:
                out.append(item)
            elif (isinstance(item, Record)
                  and item.__class__.__repr__ is Record.__repr__):
                pieces = [(f"{type(item).__qualname__}(", True)]
                for k, (name, value) in enumerate(zip(item._fields,
                                                      item._values())):
                    pieces += [(f"{', ' if k else ''}{name}=", True),
                               (value, False)]
                pieces.append((")", True))
                todo.extend(reversed(pieces))
            else:
                out.append(repr(item))
        return "".join(out)


class FrozenRecord(Record):
    """A Record whose fields cannot be reassigned; hashes by its fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        # the fields in preorder, nested frozen records opened on an
        # explicit stack and marked by their field count
        flat, todo = [], [self]
        while todo:
            value = todo.pop()
            if (isinstance(value, FrozenRecord)
                    and value.__class__.__hash__ is FrozenRecord.__hash__):
                values = value._values()
                flat.append(len(values))
                todo.extend(reversed(values))
            else:
                flat.append(value)
        return hash(tuple(flat))
