"""Three machines, for tests only, that no built-in subject can stand in for.

No command builds them. The coder tests and criterion 7's certification
runs use the two that query a neighbouring block to reach weight profiles
the built-in subjects do not; the decoder tests use the even split to see
a selected block that no outcome wins.
"""

from fractions import Fraction

from ttquery.model import AdviceFunction, NonadaptiveComputer, QueryWord, no_advice
from ttquery.ordered_search import StepInstance, bin_n
from ttquery.subjects import PROBE_HEAVY, PROBE_LIGHT, SubjectError, _identity_final


def build_neighbor_probe(M: int, n: int):
    """Probe variant querying the next two blocks instead of its own.

    Answers still come from the advice bit, so the error stays zero, but
    every block is bad on every instance and the cross-block weights are
    the nonzero values the selection audits need to see.
    """
    if M < 3:
        raise SubjectError("neighbor probe needs M >= 3")
    loc = bin_n(n, 1)

    def prequery(block, advice):
        out = int(advice[block - 1])
        first = block % M + 1
        second = first % M + 1
        return {
            ((QueryWord(first, loc),), out): PROBE_HEAVY,
            ((QueryWord(second, loc),), out): PROBE_LIGHT,
        }

    def advice_bits(instance: StepInstance) -> str:
        return "".join(name[-1] for name in instance.names)

    computer = NonadaptiveComputer(
        M=M,
        n=n,
        T=1,
        advice_len=M,
        output_width=1,
        scratch_dim=1,
        prequery=prequery,
        final=_identity_final(),
    )
    return computer, AdviceFunction(M, advice_bits)


def build_single_query(M: int, n: int):
    """One deterministic query: location 1 of the cyclically next block.

    With M = 1 that is the input block itself, which makes steps 1 and 2
    good and everything else bad. No advice, no output logic: the final
    transform is the identity, so the machine is wrong almost everywhere.
    Used to drive the encoder into sparse-weight regimes.
    """
    loc = bin_n(n, 1)

    def prequery(block, advice):
        words = (QueryWord(block % M + 1, loc),)
        return {(words, 0): Fraction(1)}

    computer = NonadaptiveComputer(
        M=M,
        n=n,
        T=1,
        advice_len=0,
        output_width=n,
        scratch_dim=1,
        prequery=prequery,
        final=_identity_final(),
    )
    return computer, no_advice()


def build_even_split(n: int):
    """M = 1, one query of location 1, and four terms of amplitude 1/2 that
    write the four 2-cell outputs.

    Every threshold gives each output probability 1/4, so no answer, on one
    cell or two, wins a strict majority. Only prefixes of location 1 are
    heavy.
    """
    words = (QueryWord(1, bin_n(n, 1)),)

    def prequery(block, advice):
        return {(words, ws): Fraction(1, 2) for ws in range(4)}

    computer = NonadaptiveComputer(
        M=1,
        n=n,
        T=1,
        advice_len=0,
        output_width=2,
        scratch_dim=1,
        prequery=prequery,
        final=_identity_final(),
    )
    return computer, no_advice()
