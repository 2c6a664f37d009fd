from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from ttquery.compression import (
    DEFAULT_PARAMS,
    BitReader,
    Coder,
    decode,
    double_bits,
    encode,
)
from ttquery.adversary import sqrt_bracket
from ttquery.model import answer_to_outcome, outcome_to_answer
from ttquery.ordered_search import StepInstance, bin_n, parse_instance, rank_of
from ttquery.statevec import measure_register, norm_sq
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
