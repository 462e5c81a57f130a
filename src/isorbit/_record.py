"""record: what the package's records use of dataclasses.dataclass, without
importing dataclasses (which pulls in inspect, ast, dis and tokenize) or
compiling methods with exec; those were most of the CLI's import time.
Fields are the class annotations, in order. A record gets __init__ (then
__post_init__), a Name(field=value, ...) repr and equality with its own class
by field tuple; frozen adds a field-tuple hash and refuses assignment, order
adds <, <=, > and >=. Instances keep a __dict__ for cached_property.
"""

import operator


def record(cls=None, /, *, frozen=False, order=False):
    def wrap(cls):
        names = tuple(cls.__annotations__)
        fields, post_init = set(names), getattr(cls, "__post_init__", None)

        def key(self):
            return tuple([getattr(self, name) for name in names])

        def __init__(self, *args, **kwargs):
            values = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or values.keys() != fields:
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
            self.__dict__.update(values)
            if post_init is not None:
                post_init(self)

        def __repr__(self):
            body = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
            return f"{type(self).__qualname__}({body})"

        def compare(op):
            def method(self, other):
                if other.__class__ is not self.__class__:
                    return NotImplemented
                return op(key(self), key(other))
            return method

        def refuse(self, name, *value):
            raise AttributeError(f"cannot set or delete {name!r} of frozen {cls.__name__}")

        cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, compare(operator.eq)
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = refuse
        for op in (operator.lt, operator.le, operator.gt, operator.ge) if order else ():
            setattr(cls, f"__{op.__name__}__", compare(op))
        return cls

    return wrap if cls is None else wrap(cls)
