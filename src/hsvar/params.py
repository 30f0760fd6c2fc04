"""Problem parameters for the coupled system and the coupling-weight catalog.

The system couples two components through a weight ``nu * h(x)`` acting on
``|u|^alpha |v|^beta / |x|^s``.  Each component carries an inverse-square
potential ``lambda_j / |x|^2`` below the Hardy threshold and a critical
weighted nonlinearity ``|u|^{p-1} / |x|^s`` with ``p = 2(N-s)/(N-2)``.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError, InvalidParameterError


def order(a: float, b: float) -> int:
    """-1, 0 or 1 as ``a`` is below, at or above ``b``: the one order of the
    paper's parameters (alpha, beta against 2, alpha + beta against p,
    lambda1 against lambda2).  A finite |a - b| <= 1e-12 max(1, |a|, |b|)
    is a tie; an infinite one, as at alpha = inf, is not."""
    d = abs(a - b)
    # three products round as the product of the max does, without calling max
    if d < math.inf and (d <= 1e-12 or d <= 1e-12 * abs(a) or d <= 1e-12 * abs(b)):
        return 0
    return 1 if a > b else -1


def whole_number(value, name: str) -> int:
    """The integer field ``name`` of a document or a flag: an int, a float
    that is a whole number, or a string of digits (4, 4.0, "4").  Anything
    else, 4.5 or true included, raises ConfigError naming the field."""
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif isinstance(value, (int, np.integer, str)) and not isinstance(value, bool):
        with suppress(ValueError):
            return int(value)
    raise ConfigError(f"{name} must be a whole number, got {value!r}")


def real_number(value, name: str) -> float:
    """The number field ``name``: an int, a float, a numpy int or float, or a
    numeric string.  Anything else, true or null included, raises ConfigError."""
    if (isinstance(value, (int, float, np.integer, np.floating, str))
            and not isinstance(value, bool)):
        with suppress(ValueError):
            return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


def text(value, name: str) -> str:
    """The string field ``name``, not empty.  Anything else raises ConfigError."""
    if isinstance(value, str) and value:
        return value
    what = "non-empty string" if isinstance(value, str) else "string"
    raise ConfigError(f"{name} must be a {what}, got {value!r}")


def json_object(value, name: str) -> dict:
    """The object ``name`` of a document.  Anything else raises ConfigError."""
    if isinstance(value, dict):
        return value
    raise ConfigError(f"{name} must be an object, got {value!r}")


def is_required(f) -> bool:
    """Whether the dataclass field ``f`` has no default."""
    return f.default is MISSING and f.default_factory is MISSING


def read_field(cls, name: str, value, prefix: str = ""):
    """Field ``name`` of the dataclass ``cls``, read by the reader of its type."""
    kind = cls.__dataclass_fields__[name].type
    if kind == "HProfile":
        return read_fields(HProfile, value, f"{prefix}{name}.")
    reader = {"int": whole_number, "float": real_number, "str": text}.get(kind)
    return value if reader is None else reader(value, prefix + name)


def read_fields(cls, doc: dict, prefix: str = ""):
    """``cls`` built from the document section ``doc``: each field present is
    read by read_field, an absent one takes its default, and an absent
    required one raises KeyError."""
    json_object(doc, prefix.rstrip(".") or cls.__name__)
    return cls(**{f.name: read_field(cls, f.name, doc[f.name], prefix)
                  for f in fields(cls) if f.name in doc or is_required(f)})


@dataclass(frozen=True)
class HProfile:
    """Radial coupling weight.

    Two families are supported:

    * ``constant``: ``h(r) = c`` with finite ``c > 0``.  Bounded but does
      not vanish at the origin or at infinity.  The coupling term is bounded
      on the energy space at critical coupling (``alpha + beta = p``).  Below it,
      the dilation ``u(r) -> e^(k(N-2)/2) u(e^k r)`` keeps the pair norm and
      the critical integrals and scales the coupling integral by
      ``e^(-k gamma)``, ``gamma = N - s - (N-2)(alpha+beta)/2 > 0``, so no
      coupled critical point exists.
    * ``bump``: ``h(r) = r^p_exp / (1 + r^(p_exp + q_exp))`` with
      finite ``p_exp, q_exp > 0``.  Continuous, bounded, and vanishing both
      at 0 and at infinity.  The coupling term is bounded when
      ``q_exp > (N - s)(p - alpha - beta) / p``.
    """

    kind: str = "constant"
    c: float = 1.0
    p_exp: float = 2.0
    q_exp: float = 2.0

    KIND_PARAMS = {"constant": ("c",), "bump": ("p_exp", "q_exp")}

    def __post_init__(self):
        if self.kind not in tuple(self.KIND_PARAMS):     # a list kind is unhashable
            raise InvalidParameterError(f"unknown h-profile kind: {self.kind!r}")
        for name in self.KIND_PARAMS[self.kind]:
            x = getattr(self, name)
            if not (x > 0 and math.isfinite(x)):
                raise InvalidParameterError(
                    f"{self.kind} h-profile requires finite {name} > 0")

    @property
    def vanishes_at_origin_and_infinity(self) -> bool:
        return self.kind == "bump"

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            return np.full_like(r, self.c)
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.asarray(r ** self.p_exp / (1.0 + r ** (self.p_exp + self.q_exp)))
            far = ~np.isfinite(h)
            if far.any():
                # r^p and r^(p+q) overflow: divide both through by r^(p+q)
                rf = r[far]
                h[far] = rf ** -self.q_exp / (1.0 + rf ** -(self.p_exp + self.q_exp))
        return h

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{k: getattr(self, k) for k in self.KIND_PARAMS[self.kind]}}


@dataclass(frozen=True)
class ProblemParams:
    """Full parameter tuple of the coupled system.

    Invariants enforced on construction:

    * ``N >= 3`` integer dimension,
    * ``0 <= s < 2``,
    * ``0 < lambda_j < (N-2)^2/4`` for both components,
    * ``alpha, beta > 1`` with ``alpha + beta <= 2(N-s)/(N-2)`` in ``order``,
    * finite ``nu >= 0``.
    """

    N: int
    s: float
    lambda1: float
    lambda2: float
    alpha: float
    beta: float
    nu: float = 0.0
    h_profile: HProfile = field(default_factory=HProfile)

    def __post_init__(self):
        bad = []
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 3):
            bad.append("N")
        if not (0.0 <= self.s < 2.0):
            bad.append("s")
        if not bad:
            lam_max = (self.N - 2) ** 2 / 4.0
            if not (0.0 < self.lambda1 < lam_max):
                bad.append("lambda1")
            if not (0.0 < self.lambda2 < lam_max):
                bad.append("lambda2")
            if not self.alpha > 1.0:
                bad.append("alpha")
            if not self.beta > 1.0:
                bad.append("beta")
            elif self.alpha > 1.0 and order(self.alpha + self.beta, self.crit_exp) > 0:
                bad.append("alpha+beta")
        if not 0.0 <= self.nu < np.inf:
            bad.append("nu")
        if bad:
            raise InvalidParameterError(f"invalid problem parameters: {', '.join(bad)}")

    @property
    def crit_exp(self) -> float:
        """Critical exponent 2(N-s)/(N-2) of the weighted nonlinearity."""
        return 2.0 * (self.N - self.s) / (self.N - 2)

    def swapped(self) -> "ProblemParams":
        """Parameters with the two components exchanged."""
        return ProblemParams(self.N, self.s, self.lambda2, self.lambda1,
                             self.beta, self.alpha, self.nu, self.h_profile)

    def to_dict(self) -> dict:
        return {
            "N": int(self.N), "s": self.s,
            "lambda1": self.lambda1, "lambda2": self.lambda2,
            "alpha": self.alpha, "beta": self.beta, "nu": self.nu,
            "h_profile": self.h_profile.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemParams":
        return read_fields(cls, d)
