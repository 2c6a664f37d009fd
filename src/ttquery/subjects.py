"""Built-in computers for the block search problem.

These are the machines the test sweeps and the CLI run against. The
reference algorithm (advised, with full as its k = 0 case) is errorless
and meets the known query counts; the others shape their queries to
reach specific branches of the encoding machinery: zero makes no queries
at all, probe keeps its own step's prefix group almost unqueried,
and shortcut mixes duplicate query lists with a sparse location pattern.

Every final transform here is either the identity or an XOR of a fixed
value per fiber into the workspace cell block, which is an involution on
basis states and hence orthogonal for free. The advised machine's value
depends on the answer index alone; shortcut's is the one that reads the
list index too, since it must tell its two lists apart.
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    AdviceFunction,
    FiberFinal,
    NonadaptiveComputer,
    QueryWord,
    answer_to_outcome,
    list_index,
    no_advice,
)
from .ordered_search import StepInstance, bin_n


class SubjectError(ValueError):
    """Unknown subject name or parameters the subject cannot take."""


def _xor_final(target_fn):
    """Final transform XORing target_fn(list index, answer index) into ws."""
    return FiberFinal(lambda lidx, aidx, ws: ws ^ target_fn(lidx, aidx))


def _identity_final():
    return FiberFinal(lambda lidx, aidx, ws: ws)


def _advised_queries(M: int, n: int, k: int) -> int:
    """T of the advised reference machine, checking that k fits M blocks."""
    if not 0 <= k <= M * n:
        raise SubjectError(f"advice length {k} outside 0..{M * n}")
    return 2 ** (n - k // M) - 1


def build_advised(M: int, n: int, k: int):
    """Reference advised algorithm: floor(k/M) leading step bits per block.

    Advice narrows each step to a window of 2^(n-q) consecutive locations;
    the computer queries all but the last of them, so T = 2^(n-q) - 1, and
    at k = 0 this is the no-advice machine `full`. Leftover advice bits are
    zero padding. The prequery writes the advised prefix into the
    workspace; the step is the window's last location minus the number of
    1-answers, so its remaining n-q bits are T minus that number, which the
    final transform XORs into the cells the prefix leaves clear.
    """
    T = _advised_queries(M, n, k)
    q = k // M

    def prequery(block, advice):
        first = advice[(block - 1) * q : block * q] + "0" * (n - q)
        lo = int(first, 2) + 1
        words = tuple(QueryWord(block, bin_n(n, r)) for r in range(lo, lo + T))
        return {(words, answer_to_outcome(first)): Fraction(1)}

    def target(lidx, aidx):
        return answer_to_outcome(bin_n(n, T + 1 - aidx.bit_count()))

    def advice_bits(instance: StepInstance) -> str:
        return "".join(name[:q] for name in instance.names) + "0" * (k - M * q)

    computer = NonadaptiveComputer(
        M=M,
        n=n,
        T=T,
        advice_len=k,
        output_width=n,
        scratch_dim=1,
        prequery=prequery,
        final=_xor_final(target),
    )
    return computer, AdviceFunction(k, advice_bits)


def build_zero(M: int, n: int):
    """No queries, no advice, identity final transform. Always answers zero."""

    def prequery(block, advice):
        return {((), 0): Fraction(1)}

    computer = NonadaptiveComputer(
        M=M,
        n=n,
        T=0,
        advice_len=0,
        output_width=n,
        scratch_dim=1,
        prequery=prequery,
        final=_identity_final(),
    )
    return computer, no_advice()


# The probe amplitudes form an exact unit pair with a deliberately skewed
# split: the heavy component sits on location 1, the light one on location
# N, and the light squared weight 4096/1050625 stays just under 1/256.
PROBE_HEAVY = Fraction(1023, 1025)
PROBE_LIGHT = Fraction(64, 1025)


def build_probe(M: int, n: int):
    """One-bit-per-block advice carrying the answer; queries are decoys.

    The advice bit for the input block is written straight into the output
    cell, so the error is zero at width 1. The two queried locations give
    the block a heavy weight only on the all-zero location prefix: every
    step outside {1, 2} makes its block bad.
    """
    k = M
    lo = bin_n(n, 1)
    hi = bin_n(n, 2**n)

    def prequery(block, advice):
        out = int(advice[block - 1])
        return {
            ((QueryWord(block, lo),), out): PROBE_HEAVY,
            ((QueryWord(block, hi),), out): PROBE_LIGHT,
        }

    def advice_bits(instance: StepInstance) -> str:
        return "".join(name[-1] for name in instance.names)

    computer = NonadaptiveComputer(
        M=M,
        n=n,
        T=1,
        advice_len=k,
        output_width=1,
        scratch_dim=1,
        prequery=prequery,
        final=_identity_final(),
    )
    return computer, AdviceFunction(k, advice_bits)


def _shortcut_queries(n: int) -> int:
    """T of the shortcut machine: every location outside 4Z."""
    if n < 2:
        raise SubjectError("shortcut needs n >= 2")
    return 3 * 2**n // 4


def build_shortcut(n: int):
    """Single block, one advice bit: is the step a multiple of four?

    If not, query every location outside 4Z in ascending order; the first
    1-answer sits exactly at the step, whose residue gives its last two
    bits. If yes, the last two bits are 11 outright, and the query list is
    T duplicate copies of location 1 so that only steps with the all-zero
    location prefix keep a good weight profile.
    """
    T = _shortcut_queries(n)
    N = 2**n
    ranks = tuple(r for r in range(1, N + 1) if r % 4 != 0)
    asc = tuple(QueryWord(1, bin_n(n, r)) for r in ranks)
    dup = (QueryWord(1, bin_n(n, 1)),) * T
    asc_idx = list_index(asc, 1, n)
    dup_idx = list_index(dup, 1, n)

    def prequery(block, advice):
        words = dup if advice == "1" else asc
        return {(words, 0): Fraction(1)}

    def target(lidx, aidx):
        if lidx == dup_idx:
            return 3
        if lidx != asc_idx:
            return 0
        for j in range(T):
            if (aidx >> (T - 1 - j)) & 1:
                return answer_to_outcome(format((ranks[j] - 1) % 4, "02b"))
        return 3

    def advice_bits(instance: StepInstance) -> str:
        return "1" if instance.step(1) % 4 == 0 else "0"

    computer = NonadaptiveComputer(
        M=1,
        n=n,
        T=T,
        advice_len=1,
        output_width=2,
        scratch_dim=1,
        prequery=prequery,
        final=_xor_final(target),
    )
    return computer, AdviceFunction(1, advice_bits)


REGISTRY = ("full", "advised", "zero", "probe", "shortcut")


def _check_shape(name: str, M: int, k: int) -> None:
    """SubjectError unless name is a registry subject and k fits its shape."""
    if name not in REGISTRY:
        raise SubjectError(f"unknown subject {name!r}; built-ins: {', '.join(REGISTRY)}")
    if name in ("full", "zero") and k != 0:
        raise SubjectError(f"{name} takes no advice (k must be 0)")
    if name == "probe" and k != M:
        raise SubjectError(f"probe uses one advice bit per block (k must be {M})")
    if name == "shortcut":
        if M != 1:
            raise SubjectError("shortcut is a single-block subject (M must be 1)")
        if k != 1:
            raise SubjectError("shortcut uses one advice bit (k must be 1)")


def get_subject(name: str, M: int, n: int, k: int):
    """Build a registry subject, checking that k fits the subject's shape."""
    _check_shape(name, M, k)
    if name in ("full", "advised"):
        return build_advised(M, n, k)
    if name == "zero":
        return build_zero(M, n)
    if name == "probe":
        return build_probe(M, n)
    return build_shortcut(n)


def query_count(name: str, M: int, n: int, k: int) -> int:
    """T of the registry subject get_subject would build, without building it.

    Raises the SubjectError that get_subject would raise for the same
    arguments.
    """
    _check_shape(name, M, k)
    if name in ("full", "advised"):
        return _advised_queries(M, n, k)
    if name == "zero":
        return 0
    if name == "probe":
        return 1
    return _shortcut_queries(n)
