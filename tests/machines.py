"""The machines and the sweep grid that the differential tests share.

The grid is every registry subject at every M <= 3 and n <= 3 it can be
built at, at each advice length ADVICE_LENGTHS gives it, built in or loaded
from its exported docs (subject): a subject added to the registry reaches
every grid test through its row there. SUBJECTS holds small sizes of the
registry subjects and of two of the four machines below, which no
built-in subject can stand in for and no command builds. The coder tests
and criterion 7's certification runs use the two that query a neighbouring
block, to reach weight profiles the built-in subjects do not; the decoder
tests use the even split to see a selected block that no outcome wins; the
input-sharing tests use the shared query to see two blocks that share a
mapping but not its analysis.
"""

from fractions import Fraction
from itertools import product

import pytest

from ttquery import harness
from ttquery.compression import DEFAULT_PARAMS, Coder, ErrorParams
from ttquery.model import (
    AdviceFunction,
    NonadaptiveComputer,
    QueryWord,
    advice_from_doc,
    advice_to_doc,
    computer_from_doc,
    computer_to_doc,
    no_advice,
)
from ttquery.ordered_search import StepInstance, bin_n, enumerate_instances
from ttquery.subjects import (
    PROBE_HEAVY,
    PROBE_LIGHT,
    SubjectError,
    _identity_final,
    get_subject,
    query_count,
)


CERT_PARAMS = ErrorParams(Fraction(0), Fraction(1, 2))
# sqrt C = (1 - 2 (1 + c) / 3) / 4 = 64/1025, so C is the probe's light
# weight: that prefix sits exactly at the threshold and must not be heavy
EDGE_PARAMS = ErrorParams(Fraction(1, 3), Fraction(257, 2050))
PARAMS = (DEFAULT_PARAMS, CERT_PARAMS, EDGE_PARAMS)


def advice_strings(k):
    """Every k-bit advice string, in increasing order."""
    return ["".join(bits) for bits in product("01", repeat=k)]


def inputs(M, k):
    """Every (block, advice) input of an M-block computer with k advice bits."""
    return list(product(range(1, M + 1), advice_strings(k)))


# the advice lengths the grid builds each registry subject at, given M; the
# first is the one its test ids leave unnamed. advised at k = 1 pads every
# block past the first, and at k = M reads one bit per block
ADVICE_LENGTHS = {
    "full": lambda M: (0,),
    "advised": lambda M: sorted({1, M}),
    "zero": lambda M: (0,),
    "probe": lambda M: (M,),
    "shortcut": lambda M: (1,),
}


def registry_shapes(shapes):
    """(name, M, n, k) for every registry subject, at every (M, n) of shapes
    and advice length ADVICE_LENGTHS gives it that it can be built at."""
    for (name, lengths), (M, n) in product(ADVICE_LENGTHS.items(), shapes):
        for k in lengths(M):
            try:
                query_count(name, M, n, k)
            except SubjectError:
                continue
            yield name, M, n, k


def grid_params(max_M=3):
    """The grid as pytest params (name, M, n, k, from_doc): every registry
    subject at every M <= max_M, n <= 3 and advice length it can be built
    at, built in and loaded from its exported docs."""
    cases = []
    for name, M, n, k in registry_shapes(product(range(1, max_M + 1), range(1, 4))):
        label = f"{name}-M{M}-n{n}" + (f"-k{k}" if k != ADVICE_LENGTHS[name](M)[0] else "")
        cases.append((name, M, n, k, label))
    return [
        pytest.param(name, M, n, k, from_doc, id=label + "-doc" * from_doc)
        for from_doc in (False, True)
        for name, M, n, k, label in cases
    ]


def every_threshold(M, n):
    """Every threshold vector in 1..N+1: each class of every block, N+1 included."""
    return list(product(range(1, 2**n + 2), repeat=M))


def coders(comp, adv, params=PARAMS):
    """A coder under each of params at every l and every p within n and
    the output width."""
    widths = range(1, min(comp.n, comp.output_width) + 1)
    for each, l, p in product(params, range(1, comp.M + 1), widths):
        yield Coder(comp, adv, p, l, each)


def sweep_coders(comp, adv):
    """A coder at every p in {1, n} within the output width and every l in
    {1, M}."""
    for p, l in product(sorted({1, comp.n}), sorted({1, comp.M})):
        if p <= comp.output_width:
            yield Coder(comp, adv, p, l)


def export(computer, advice_fn, tabulated=None):
    """The subject docs: the computer over `tabulated` inputs, every input
    by default, and its advice over every instance."""
    M, n, k = computer.M, computer.n, computer.advice_len
    return {
        "computer": computer_to_doc(computer, tabulated or inputs(M, k)),
        "advice": advice_to_doc(advice_fn, enumerate_instances(M, n)),
    }


def subject(name, M, n, k, from_doc=False, inputs=None):
    """The registry subject; with from_doc, loaded from its exported docs,
    the computer's doc tabulating only `inputs` if given, so that it has
    seen no other input."""
    comp, adv = get_subject(name, M, n, k)
    if from_doc:
        docs = export(comp, adv, inputs)
        comp, adv = computer_from_doc(docs["computer"]), advice_from_doc(docs["advice"])
    return comp, adv


def reports(cfg):
    """Every report of the config's commands, as CSV and JSON text; at M = 1
    the single scheme's round trip too."""
    commands = (harness.cmd_simulate, harness.cmd_roundtrip, harness.cmd_lemmas, harness.cmd_bounds)
    runs = [command(cfg) for command in commands]
    if cfg.M == 1:
        runs.append(harness.cmd_roundtrip(cfg._replace(scheme="single")))
    return [harness.report_csv(r) + harness.report_json(r) for r in runs]


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


def build_shared_query(n: int):
    """M = 3: input blocks 1 and 2 both query location 1 of block 1, and
    block 3 queries location 1 of its own block.

    Blocks 1 and 2 return one mapping, so the computer validates it once,
    but the query weighs block 1's own prefix and none of block 2's: the
    two blocks' weight analyses differ. No advice, and the identity final.
    """
    loc = bin_n(n, 1)

    def prequery(block, advice):
        words = (QueryWord(1 if block < 3 else 3, loc),)
        return {(words, 0): Fraction(1)}

    computer = NonadaptiveComputer(
        M=3,
        n=n,
        T=1,
        advice_len=0,
        output_width=n,
        scratch_dim=1,
        prequery=prequery,
        final=_identity_final(),
    )
    return computer, no_advice()


# (label, builder, M, n, k, p): small sizes of every registry subject and of
# the neighbour probe and the single query, p within the output width
SUBJECTS = (
    ("full", lambda: get_subject("full", 2, 2, 0), 2, 2, 0, 2),
    ("advised", lambda: get_subject("advised", 2, 2, 2), 2, 2, 2, 1),
    ("zero", lambda: get_subject("zero", 2, 2, 0), 2, 2, 0, 1),
    ("probe", lambda: get_subject("probe", 2, 2, 2), 2, 2, 2, 1),
    ("shortcut", lambda: get_subject("shortcut", 1, 3, 1), 1, 3, 1, 2),
    ("neighbor_probe", lambda: build_neighbor_probe(4, 2), 4, 2, 4, 1),
    ("single_query", lambda: build_single_query(2, 2), 2, 2, 0, 2),
)
