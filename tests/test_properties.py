from fractions import Fraction
from itertools import product

from hypothesis import given, settings
import hypothesis.strategies as st
from reference import (
    apply_oracle,
    inner_product,
    measure_register,
    norm_sq,
    straight_run,
    straight_weights,
)

from ttquery.compression import (
    DEFAULT_PARAMS,
    BitReader,
    Coder,
    decode,
    double_bits,
    encode,
    prefix_weights,
)
from ttquery.adversary import sqrt_bracket
from ttquery.model import (
    FiberFinal,
    NonadaptiveComputer,
    QueryWord,
    answer_to_outcome,
    list_index,
    outcome_to_answer,
    overlap,
    run,
)
from ttquery.ordered_search import StepInstance, bin_n, parse_instance, rank_of
from ttquery.subjects import get_subject

widths = st.integers(min_value=1, max_value=6)


@given(st.data(), widths)
def test_bin_rank_inverse(data, width):
    rank = data.draw(st.integers(1, 2**width))
    assert rank_of(bin_n(width, rank)) == rank


@given(st.integers(0, 255))
def test_output_cell_order_inverse(m):
    assert answer_to_outcome(outcome_to_answer(m, 8)) == m


@given(st.text(alphabet="01", max_size=12))
def test_doubled_bits_self_delimit(bits):
    # payload, then the separator, then a payload-independent tail
    reader = BitReader(double_bits(bits) + "01" + "11")
    assert reader.take_doubled() == bits
    assert reader.take(2) == "11"


@given(st.integers(1, 3), widths, st.data())
def test_instance_literal_inverse(M, n, data):
    steps = tuple(
        data.draw(st.integers(1, 2**n), label=f"step{i}") for i in range(M)
    )
    inst = StepInstance(M, n, steps)
    assert parse_instance(inst.literal()) == inst


@given(st.fractions(min_value=0, max_value=1000))
def test_sqrt_bracket_encloses(x):
    lo, hi = sqrt_bracket(x)
    assert lo * lo <= x <= hi * hi
    assert hi - lo <= Fraction(1, 10**12)


@given(
    st.dictionaries(
        st.integers(0, 7),
        st.fractions(min_value=-3, max_value=3),
        max_size=6,
    ),
    st.integers(0, 3),
)
def test_measurement_mass_equals_norm(amps, width):
    state = {(0, 0, k): v for k, v in amps.items() if v != 0}
    probs = measure_register(state, 8, width)
    assert sum(probs.values(), Fraction(0)) == norm_sq(state)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_roundtrip_random_instances(data):
    name, k = data.draw(
        st.sampled_from([("full", 0), ("zero", 0), ("probe", 2)]), label="subject"
    )
    comp, adv = get_subject(name, 2, 3, k)
    l = data.draw(st.integers(1, 2), label="l")
    steps = (data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8)))
    inst = StepInstance(2, 3, steps)
    coder = Coder(comp, adv, 1, l, DEFAULT_PARAMS)
    assert decode(coder, encode(coder, inst)) == inst


# every unit-norm choice of 1 to 4 amplitudes from {1, 3/5, 4/5, 1/2}, up to sign
UNIT_AMPLITUDES = ((Fraction(1),), (Fraction(3, 5), Fraction(4, 5)), (Fraction(1, 2),) * 4)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_pass_runs_match_the_reference_path(data):
    # run's and overlap's one pass over cached terms against the
    # state-by-state path (oracle state, final_apply, measure_register, and
    # inner_product of two oracle states), and prefix_weights at every p
    # against the straight weights, on a random machine with a scratch
    # register, an XOR per fiber as its final, and lists that may repeat a
    # word
    M, n, T = (data.draw(st.integers(1, 2), label=name) for name in ("M", "n", "T"))
    output_width = data.draw(st.integers(1, n), label="output width")
    scratch = data.draw(st.sampled_from([2, 4]), label="scratch")
    dim = 2**output_width * scratch
    words = [QueryWord(b, bin_n(n, r)) for b in range(1, M + 1) for r in range(1, 2**n + 1)]
    cell = st.tuples(st.tuples(*[st.sampled_from(words)] * T), st.integers(0, dim - 1))
    amps = data.draw(st.sampled_from(UNIT_AMPLITUDES), label="amplitudes")
    first = data.draw(cell, label="first cell")
    cells = [first]
    if len(amps) > 1:
        # the low cell bit is a scratch bit, so an XOR per fiber sends these
        # two cells of one fiber into one outcome at every width
        cells.append((first[0], first[1] ^ 1))
        cells += data.draw(
            st.lists(
                cell.filter(lambda c: c not in cells),
                min_size=len(amps) - 2,
                max_size=len(amps) - 2,
                unique=True,
            ),
            label="other cells",
        )
    signs = data.draw(
        st.lists(st.sampled_from([1, -1]), min_size=len(amps), max_size=len(amps)), label="signs"
    )
    prequery = {c: sign * amp for c, sign, amp in zip(cells, signs, amps)}
    fibers = sorted({(list_index(qlist, M, n), aidx) for qlist, _ws in cells for aidx in range(2**T)})
    xors = data.draw(
        st.lists(st.integers(0, dim - 1), min_size=len(fibers), max_size=len(fibers)),
        label="xors",
    )
    xor = dict(zip(fibers, xors))
    comp = NonadaptiveComputer(
        M, n, T, 0, output_width, scratch,
        lambda block, advice: prequery,
        FiberFinal(lambda lidx, aidx, ws: ws ^ xor[(lidx, aidx)]),
    )
    vectors = list(product(range(1, 2**n + 2), repeat=M))
    for block in range(1, M + 1):
        for p in range(1, n + 1):
            assert prefix_weights(comp, block, "", p) == straight_weights(comp, block, "", p)
        for steps in vectors:
            for width, want in straight_run(comp, block, "", steps).items():
                assert run(comp, block, "", steps, width) == want, (block, steps, width)
        states = {steps: apply_oracle(comp, block, "", steps) for steps in vectors}
        for a, b in product(vectors, repeat=2):
            want = inner_product(states[a], states[b])
            assert overlap(comp, block, "", a, b) == want, (block, a, b)
