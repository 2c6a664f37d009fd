"""Instance compression against a fixed nonadaptive computer.

The machinery here turns a query-bounded machine into a code for step
vectors. Query weights classify each block as good (its own step prefix
carries weight above a threshold) or bad. Good steps compress to a rank
inside the machine's heavy-prefix list; bad steps either ship in full or
drop their low-order bits, which the decoder wins back by running the
machine (model.run) with substituted per-block oracle thresholds and
reading the answer measured with probability above 1/2.

Everything is exact. Weights, thresholds, state amplitudes, and the two
certifying inequalities are rationals; square roots are never
materialized, comparisons against them happen in squared or exponential
form.

Encoding layout. Both cases open with the advice string, the good block
indices in double binary (each bit written twice, indices as
w = ceil(log2 M) bit values in increasing order, so 2w bits per index),
and the separator "01". Case 1 then walks blocks in order: a good block
stores its heavy-prefix rank in a fixed-width field followed by the last
p bits of its step name, a bad block stores the full n-bit name. Case 2
stores full names for good blocks, the leading n-p bits for bad blocks,
and last-p-bit suffixes for the bad blocks the selection procedure did
not pick. The case tag rides alongside the bits, not inside them.

Work that does not depend on the instance is done once. The EncodingContext
derives T / C, the rank and index widths, the audit's integer rank limit
and its distance bound when built, and on first use the two inequality
reports, one Rounds record per pool size (the selection's round count m,
its threshold C / m, the round-count verdict and the integer survivor
floors), and each code layout: the item map and doubled good-index field
of a (case, good indices, selected blocks) key. A Coder is one computer
and its advice function at a given p, l and error parameters; its context
reads M, n, k and T from the computer. It owns two caches: per (block,
advice) the weight analysis (weight_analysis), with a rank map from heavy
prefix to its index and the block's query-mass verdict, and per (advice,
bad prefixes) the selection (_select), which the encoder, the decoder and
the audit all read, so a decoder reuses the selection its encoder made.
An analysis is built once per input block and distinct prequery mapping
(the computer's input ordinal), and the advice strings whose mappings are
equal share it. Prefix weights are summed from the computer's cached
oracle terms, whose amplitudes are already squared. Every coder function
takes the Coder.
The audit's substitution distances come from model.overlap, which the
computer memoizes per pair of class vectors. Per instance, the step names
are formatted once when the StepInstance is built, profile evaluates the
advice once and the profile carries it, a block is classified by looking
its prefix up in the rank map rather than comparing its weight with C,
and the encoder only joins the field bits into the layout the context
holds. Both decoders end in one check: the decoded instance must
reproduce the advice string its code carries.

The single-block scheme (M = 1, p = k + 1, l = 1) only lays out bits its own
way: it classifies through the profile, which refuses an instance of another
shape, and its decoder shares decode's rank read-back and majority recovery.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import ceil, isqrt
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .model import NonadaptiveComputer, overlap, run
from .ordered_search import StepInstance, enumerate_instances, rank_of
from .statevec import as_rational, checked_epsilon


_ZERO = Fraction(0)


class EncodingFormatError(ValueError):
    """Serialized bits that do not parse under the scheme layout."""


class DecodeError(ValueError):
    """Parsing succeeded but reconstruction cannot finish."""


class LwssExhaustedError(RuntimeError):
    """The selection ran out of candidates before filling its quota.

    For a machine whose weights actually obey the selection guarantees
    this cannot happen; seeing it means an invariant was violated.
    """


# ---------------------------------------------------------------------------
# Error parameters


class ErrorParams:
    """Error tolerance epsilon and slack c, with the derived threshold.

    Requires 0 <= epsilon and 0 < c < d(epsilon), where d is 1/(2 eps) - 1
    for positive epsilon and 1 for epsilon = 0. Under those constraints the
    inflated error eps_prime = (1 + c) * epsilon stays below 1/2, the
    threshold C = (1 - 2 eps_prime)^2 / 16 is positive, and its square
    root (1 - 2 eps_prime) / 4 is itself rational, so the decoder margin
    identity 2 sqrt(C) + epsilon = 1/2 - c * epsilon holds exactly; margin
    is that headroom above 1/2, c * epsilon. Every derived value is set
    once here.
    """

    def __init__(self, epsilon: int | str | Fraction, c: int | str | Fraction):
        self.epsilon = checked_epsilon(epsilon)
        self.c = as_rational(c)
        self.d = 1 / (2 * self.epsilon) - 1 if self.epsilon > 0 else Fraction(1)
        if not 0 < self.c < self.d:
            raise ValueError(f"c must lie strictly between 0 and {self.d}")
        self.eps_prime = (1 + self.c) * self.epsilon
        self.sqrt_C = (1 - 2 * self.eps_prime) / 4
        self._C = self.sqrt_C * self.sqrt_C
        self.margin = self.c * self.epsilon

    @property
    def C(self) -> Fraction:
        return self._C


DEFAULT_PARAMS = ErrorParams(Fraction(1, 3), Fraction(1, 8))


def ceil_log2(x: int | str | Fraction) -> int:
    """Smallest nonnegative w with 2**w >= x, for positive rational x."""
    x = as_rational(x)
    if x <= 0:
        raise ValueError("ceil_log2 needs a positive value")
    # 2**w is whole, so 2**w >= x exactly when 2**w >= ceil(x)
    return (ceil(x) - 1).bit_length()


def rank_width(T: int, C: Fraction) -> int:
    """Bit width of a heavy-prefix rank field: ceil(log2(T / C)), 0 if T = 0."""
    return ceil_log2(Fraction(T) / C) if T else 0


class Rounds(NamedTuple):
    """The selection's schedule over a pool of bad blocks.

    m is the round count, threshold the weight bound C / m (None when
    m = 0), m_ok the audit's direct check of m, and floors[i] the least
    number of candidates the selection may hold after i rounds, the
    integer ceil(pool - t m i), for i in 0..m.
    """

    m: int
    threshold: Fraction | None
    m_ok: bool
    floors: tuple[int, ...]


class EncodingContext:
    """Shared parameters of one encode/decode configuration.

    Index fields are index_width = ceil(log2 M) bits wide, for every
    M >= 1.

    What depends on the configuration alone is derived here once, not per
    instance. On construction: N = 2**n, the threshold C, the ratio
    t = T / C, the rank width width_k, the index width, the rank limit
    min(ceil(t), 2**width_k), which an integer rank is below exactly when
    it is below both t and 2**width_k, and the audit's distance bound 4 C.
    On first use: the two inequality reports (inequality_reports), the
    selection's Rounds record per pool size (rounds), and each code layout
    per (case, good indices, selected blocks) (layout). The context owns
    these; they are read only.
    """

    def __init__(
        self, M: int, n: int, p: int, k: int, T: int, l: int,
        params: ErrorParams = DEFAULT_PARAMS,
    ):
        if M < 1:
            raise ValueError("M must be positive")
        if n < 1:
            raise ValueError("n must be positive")
        if not 1 <= p <= n:
            raise ValueError("p must lie in [1, n]")
        if k < 0:
            raise ValueError("k must be nonnegative")
        if T < 0:
            raise ValueError("T must be nonnegative")
        if not 1 <= l <= M:
            raise ValueError("l must lie in [1, M]")
        self.M, self.n, self.p, self.k, self.T, self.l = M, n, p, k, T, l
        self.params = params
        self.N = 2**n
        self.C = params.C
        self.t = Fraction(T) / self.C
        self.width_k = rank_width(T, self.C)
        self.index_width = (M - 1).bit_length()
        self.rank_limit = min(ceil(self.t), 2**self.width_k)
        self.distance_bound = 4 * self.C
        self._rounds: dict = {}
        self._layouts: dict = {}

    @cached_property
    def inequality_reports(self) -> tuple[InequalityReport, InequalityReport]:
        """The case 1 and case 2 reports of the length guarantee.

        Built on first use, and only then is T = 0 refused with ValueError;
        see check_inequalities.
        """
        return _inequality_reports(self)

    def rounds(self, pool: int) -> Rounds:
        """The selection's Rounds record over pool bad blocks, derived once
        per pool size.

        m_ok holds when m is the largest m with the quadratic
        t m^2 - (t - 1) m - pool nonpositive and flooring kept
        C * pool <= T * (m + 1)^2; with no queries or no bad blocks m must
        be 0.
        """
        found = self._rounds.get(pool)
        if found is None:
            t = self.t
            m = _round_count(t, pool)
            if self.T == 0 or not pool:
                m_ok = m == 0
            else:
                def quad(x):
                    return t * x * x - (t - 1) * x - pool

                m_ok = quad(m) <= 0 < quad(m + 1) and (
                    self.C * pool <= self.T * (m + 1) ** 2
                )
            # ceil(pool - t m i) = pool - floor(t m i)
            floors = tuple(
                pool - t.numerator * m * i // t.denominator for i in range(m + 1)
            )
            found = self._rounds[pool] = Rounds(
                m, self.C / m if m else None, m_ok, floors
            )
        return found

    def layout(self, case: int, good: tuple[int, ...], chosen: tuple[int, ...] = ()):
        """Item map and doubled good-index field of a code in this case
        with these good and selected blocks, derived once per key.

        Every field's width is fixed by the context, so the layout does not
        depend on the field values; see the module docstring.
        """
        key = (case, good, chosen)
        found = self._layouts.get(key)
        if found is None:
            found = self._layouts[key] = _layout(self, case, good, chosen)
        return found


class Coder:
    """A fixed machine and its advice, coding at width p and threshold l.

    Its context ctx reads M, n, k and T from the computer, so the two
    cannot disagree; only a p wider than the computer's output is refused.
    It owns two caches, filled on first use and read only: analyses
    (weight_analysis), keyed by (block, advice), whose values are built
    once per (block, input ordinal) and kept in _shared_analyses too, so
    advice strings with equal mappings share one; and selections, the
    selection of each (advice, bad prefixes) pair (_select), which the
    decoder, the encoder and the audit all read, so a code's decoder
    reuses its encoder's selection. Coders over one computer share its
    caches, not these.
    """

    def __init__(self, computer: NonadaptiveComputer, advice_fn, p, l, params=DEFAULT_PARAMS):
        if p > computer.output_width:
            raise ValueError("cannot measure more cells than the computer writes")
        self.ctx = EncodingContext(
            computer.M, computer.n, p, computer.advice_len, computer.T, l, params
        )
        self.computer, self.advice_fn = computer, advice_fn
        self.analyses: dict = {}
        self._shared_analyses: dict = {}
        self.selections: dict = {}


# ---------------------------------------------------------------------------
# Query weights

# A word's weight counts each prequery list once, no matter how many
# duplicate copies of the word the list holds.


def prefix_weights(computer, block, advice, p):
    """Map (j, leading n-p bits) -> summed weight over the 2**p completions.

    Read from the input's cached oracle terms: a term's answer table holds
    each distinct (block, rank) word of its list once, and the term carries
    its amplitude already squared.
    """
    cut = computer.n - p
    spec = f"0{cut}b"
    acc: dict = {}
    for _lidx, table, _ws, square in computer._cached_input(block, advice).terms:
        for j, ranks, _shares in table:
            for rank in ranks:
                key = (j + 1, format((rank - 1) >> p, spec) if cut else "")
                acc[key] = acc.get(key, _ZERO) + square
    return acc


class WeightAnalysis(NamedTuple):
    """Prefix weights of one machine input (block, advice) at cut p.

    table maps (j, leading n-p bits) to the summed weight of the 2**p
    completions, as prefix_weights builds it; own_mass sums the input
    block's own entries and mass_ok is the verdict own_mass <= T. heavy
    lists, sorted, the input block's own prefixes weighted strictly above
    the coder's C, and ranks maps each of them to its index in heavy, so a
    prefix is heavy exactly when it has a rank. None of this depends on the
    instance, so one record serves every instance with this advice string,
    and every advice string that gives the block an equal prequery mapping.
    It is shared and read only.
    """

    table: Mapping[tuple[int, str], Fraction]
    own_mass: Fraction
    mass_ok: bool
    heavy: tuple[str, ...]
    ranks: Mapping[str, int]


def weight_analysis(coder: Coder, block, advice) -> WeightAnalysis:
    """The analysis of (block, advice) at the coder's p and C, kept in coder.analyses.

    The table depends only on the input's prequery mapping, but heavy and
    the mass are read from the input block's own entries, so a miss takes
    the analysis of (block, input ordinal), built on first use: blocks
    that share a mapping keep analyses of their own.
    """
    key = (block, advice)
    found = coder.analyses.get(key)
    if found is None:
        shared = (block, coder.computer._cached_input(block, advice).ordinal)
        found = coder._shared_analyses.get(shared)
        if found is None:
            ctx = coder.ctx
            table = MappingProxyType(prefix_weights(coder.computer, block, advice, ctx.p))
            own_mass = sum((v for (j, _), v in table.items() if j == block), Fraction(0))
            heavy = tuple(
                sorted(a for (j, a), v in table.items() if j == block and v > ctx.C)
            )
            ranks = MappingProxyType({prefix: rank for rank, prefix in enumerate(heavy)})
            found = coder._shared_analyses[shared] = WeightAnalysis(
                table, own_mass, own_mass <= ctx.T, heavy, ranks
            )
        coder.analyses[key] = found
    return found


# ---------------------------------------------------------------------------
# Good/bad profiling


class BlockProfile(NamedTuple):
    block: int
    prefix: str
    good: bool
    rank: int | None


class GoodBadProfile(NamedTuple):
    """An instance's advice string and each block's classification under it."""

    advice: str
    blocks: tuple[BlockProfile, ...]
    good_indices: tuple[int, ...]

    @property
    def l_prime(self) -> int:
        return len(self.good_indices)


def profile(coder: Coder, instance) -> GoodBadProfile:
    """Classify every block by the weight its machine puts on its own step.

    The instance's M and n are checked first, then its advice is evaluated
    once and kept on the profile. A block is good when the weight of its
    step's leading n-p bits is strictly above C. For good blocks the rank
    counts heavy prefixes that sort strictly below the step's own prefix.
    """
    computer = coder.computer
    if (instance.M, instance.n) != (computer.M, computer.n):
        raise ValueError("instance and computer disagree on M or n")
    f = coder.advice_fn(instance)
    cut = computer.n - coder.ctx.p
    out = []
    for i, name in enumerate(instance.names, 1):
        pre = name[:cut]
        # heavy is the analysis's list at threshold C: a rank means w > C
        rank = weight_analysis(coder, i, f).ranks.get(pre)
        out.append(BlockProfile(i, pre, rank is not None, rank))
    return GoodBadProfile(f, tuple(out), tuple(bp.block for bp in out if bp.good))


# ---------------------------------------------------------------------------
# The certifying constant and its two inequalities


def c_uv_values(ctx: EncodingContext):
    """Both branch values of the certifying constant.

    The first entry is None when (k + 2) / l is not an integer; the value
    is then irrational and only the exponential-form inequality check can
    compare against it exactly.
    """
    first = None
    if (ctx.k + 2) % ctx.l == 0:
        e = ctx.p + 1 + (ctx.k + 2) // ctx.l
        first = ctx.C * ctx.N / Fraction(2) ** (2 * ctx.index_width + e)
    a = 2 * ctx.l * ctx.index_width + ctx.k + 2
    second = ctx.C * (ctx.M - ctx.l) * ctx.p * ctx.p / (a * a)
    return first, second


class InequalityReport(NamedTuple):
    """Exact evaluation of the two length-guarantee inequalities.

    With w the index width, case1_holds decides (T/C)^l < 2^E with the
    integer exponent E = l(n - p - 1 - 2w) - (k + 2); this is the
    exponential form of the first inequality and is always exactly
    decidable, so no interval fallback is ever needed. case2_holds decides
    p^2 C (M - l) > A^2 T with A = 2lw + k + 2, the squared form of the
    second. The
    applicable one (selected by the instance's good-block count) equals
    the comparison T < c_uv whenever that constant is rational;
    matches_closed_form records the cross-check.
    """

    case: int
    case1_holds: bool
    case2_holds: bool
    certified: bool
    c_uv: Fraction | None
    matches_closed_form: bool | None


def _inequality_reports(ctx: EncodingContext):
    """Both inequality reports of a context: case 1 first, then case 2."""
    if ctx.T < 1:
        raise ValueError("the length guarantee needs at least one query")
    T = Fraction(ctx.T)
    t = ctx.t
    E = ctx.l * (ctx.n - ctx.p - 1 - 2 * ctx.index_width) - (ctx.k + 2)
    case1 = t**ctx.l < Fraction(2) ** E
    a = 2 * ctx.l * ctx.index_width + ctx.k + 2
    case2 = ctx.p * ctx.p * ctx.C * (ctx.M - ctx.l) > a * a * T
    reports = []
    for case, certified, cu in zip((1, 2), (case1, case2), c_uv_values(ctx)):
        matches = None if cu is None else ((T < cu) == certified)
        reports.append(InequalityReport(case, case1, case2, certified, cu, matches))
    return tuple(reports)


def check_inequalities(ctx: EncodingContext, prof: GoodBadProfile) -> InequalityReport:
    """Decide the length guarantee for this configuration, exactly.

    Only the choice of case reads the instance, through its good-block
    count; the report itself is the context's shared one.
    """
    return ctx.inequality_reports[0 if ctx.l <= prof.l_prime else 1]


# ---------------------------------------------------------------------------
# Bit-level plumbing


def double_bits(bits: str) -> str:
    return "".join(ch + ch for ch in bits)


def _field(value: int, width: int) -> str:
    if width == 0:
        if value:
            raise ValueError(f"value {value} does not fit a zero-width field")
        return ""
    if value >= 2**width:
        raise ValueError(f"value {value} does not fit {width} bits")
    return format(value, f"0{width}b")


def _items(widths) -> tuple[tuple[str, int, int], ...]:
    """(name, offset, length) items tiling fields of the given (name, width)."""
    items, pos = [], 0
    for name, width in widths:
        items.append((name, pos, width))
        pos += width
    return tuple(items)


class BitReader:
    """Sequential reader over a 0/1 string with layout-error reporting."""

    def __init__(self, bits: str):
        self.bits = bits
        self.pos = 0

    def take(self, width: int) -> str:
        if self.pos + width > len(self.bits):
            raise EncodingFormatError("bit stream ended inside a field")
        out = self.bits[self.pos : self.pos + width]
        self.pos += width
        return out

    def take_doubled(self) -> str:
        """Read doubled bits up to the "01" separator, returning the payload."""
        out = []
        while True:
            pair = self.take(2)
            if pair == "01":
                return "".join(out)
            if pair == "00":
                out.append("0")
            elif pair == "11":
                out.append("1")
            else:
                raise EncodingFormatError("malformed doubled section")

    def expect_end(self) -> None:
        if self.pos != len(self.bits):
            raise EncodingFormatError("trailing bits after the last field")


class Encoding:
    """Raw code bits plus the case tag and an item map for audits.

    The item map is derivable from the context and never consulted while
    decoding; its offsets must tile the bit string exactly, so
    re-serializing the items reproduces the raw bits by construction.
    Encodings compare and hash by (case, bits, items).
    """

    __slots__ = ("case", "bits", "items")

    def __init__(self, case: int, bits: str, items: tuple[tuple[str, int, int], ...]):
        if case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        if set(bits) - {"0", "1"}:
            raise ValueError("bits must be a 0/1 string")
        pos = 0
        for name, off, length in items:
            if off != pos or length < 0:
                raise ValueError(f"item {name} breaks the contiguous layout")
            pos += length
        if pos != len(bits):
            raise ValueError("items do not cover the bit string")
        self.case, self.bits, self.items = case, bits, items

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.case, self.bits, self.items) == (other.case, other.bits, other.items)

    def __hash__(self) -> int:
        return hash((self.case, self.bits, self.items))

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def hex(self) -> str:
        """Bits packed left to right, zero padded up to a whole nibble."""
        if not self.bits:
            return ""
        pad = (-len(self.bits)) % 4
        padded = self.bits + "0" * pad
        return format(int(padded, 2), f"0{len(padded) // 4}x")

    def items_compact(self) -> str:
        return " ".join(f"{name}:{off}+{length}" for name, off, length in self.items)


# ---------------------------------------------------------------------------
# Selection of lightly queried bad blocks


class LwssResult(NamedTuple):
    """Outcome of the light-weight step selection over the bad blocks.

    W lists the selected blocks in pick order. survivor_sizes records the
    candidate-set size entering each round and after the last one.
    crosses holds (earlier pivot, later pivot, weight) rows so audits can
    recheck that every later pick stayed under the threshold when the
    earlier pivot's weights were examined.
    """

    W: tuple[int, ...]
    m: int
    threshold: Fraction | None
    survivor_sizes: tuple[int, ...]
    crosses: tuple[tuple[int, int, Fraction], ...]


def _round_count(t: Fraction, pool_size: int) -> int:
    """Floor of the positive root of t m^2 - (t - 1) m - pool = 0.

    Computed through an integer square root of the discriminant; flooring
    the root and flooring the radical commute here, which the audit
    rechecks against direct evaluation.
    """
    if t == 0 or pool_size == 0:
        return 0
    num, den = t.numerator, t.denominator
    disc = (num - den) ** 2 + 4 * num * den * pool_size
    return (num - den + isqrt(disc)) // (2 * num)


def _select(coder: Coder, advice, bad_prefixes):
    """The selection over bad_prefixes, {block: prefix} in block order,
    kept in coder.selections (see lwss)."""
    key = (advice, tuple(bad_prefixes.items()))
    found = coder.selections.get(key)
    if found is not None:
        return found
    survivors = sorted(bad_prefixes)
    m, threshold, _, _ = coder.ctx.rounds(len(survivors))
    picked: list[int] = []
    sizes = [len(survivors)]
    tables = {}
    for _ in range(m):
        candidates = [j for j in survivors if j not in picked]
        if not candidates:
            raise LwssExhaustedError(
                f"no candidates left after {len(picked)} of {m} rounds"
            )
        pivot = candidates[0]
        picked.append(pivot)
        tbl = weight_analysis(coder, pivot, advice).table
        tables[pivot] = tbl
        # a prefix the table lacks weighs 0, below the positive threshold
        survivors = [
            j
            for j in survivors
            if (w := tbl.get((j, bad_prefixes[j]))) is None or w < threshold
        ]
        sizes.append(len(survivors))
    crosses = []
    for a_pos, a in enumerate(picked):
        for b in picked[a_pos + 1 :]:
            crosses.append(
                (a, b, tables[a].get((b, bad_prefixes[b]), _ZERO))
            )
    found = coder.selections[key] = LwssResult(
        tuple(picked), m, threshold, tuple(sizes), tuple(crosses)
    )
    return found


def lwss(coder: Coder, prof: GoodBadProfile):
    """Pick the profile's bad blocks whose steps other picks query lightly.

    Runs m rounds, m being the floored positive root of
    (T/C) m^2 - (T/C - 1) m - (number of bad blocks) = 0, except that a
    machine with no queries gets m = 0 outright. Each round picks the
    smallest remaining candidate and then discards every candidate on
    which the pick's machine run puts prefix weight at or above C/m.
    """
    bad = {bp.block: bp.prefix for bp in prof.blocks if not bp.good}
    return _select(coder, prof.advice, bad)


# ---------------------------------------------------------------------------
# Encoder


def expected_length(ctx: EncodingContext, l_prime: int, case: int, selected: int = 0) -> int:
    """Item-by-item length total for one encoded instance."""
    base = ctx.k + 2 * l_prime * ctx.index_width + 2
    if case == 1:
        return base + l_prime * (ctx.width_k + ctx.p) + (ctx.M - l_prime) * ctx.n
    return (
        base
        + l_prime * ctx.n
        + (ctx.M - l_prime) * (ctx.n - ctx.p)
        + ctx.p * (ctx.M - l_prime - selected)
    )


def encode(coder: Coder, instance) -> Encoding:
    """Serialize one instance relative to the machine."""
    return _encode(coder, instance)[0]


def _layout(ctx: EncodingContext, case, good, chosen):
    """The item map and doubled good-index field that ctx.layout keeps."""
    good_field = double_bits("".join(_field(i - 1, ctx.index_width) for i in good))
    widths = [("advice", ctx.k), ("good-indices", len(good_field)), ("separator", 2)]
    if case == 1:
        for i in range(1, ctx.M + 1):
            if i in good:
                widths += [(f"rank-{i}", ctx.width_k), (f"suffix-{i}", ctx.p)]
            else:
                widths.append((f"name-{i}", ctx.n))
    else:
        bad = [j for j in range(1, ctx.M + 1) if j not in good]
        widths += [(f"name-{i}", ctx.n) for i in good]
        widths += [(f"prefix-{j}", ctx.n - ctx.p) for j in bad]
        widths += [(f"suffix-{j}", ctx.p) for j in bad if j not in chosen]
    return _items(widths), good_field


def _encode(coder: Coder, instance):
    """Encoding plus its profile and its selection (case 2 only).

    Only the field bits are computed per instance; the advice comes from
    the profile and the item map from the context's layout.
    """
    ctx = coder.ctx
    names = instance.names
    prof = profile(coder, instance)
    f, good = prof.advice, prof.good_indices
    cut = ctx.n - ctx.p
    if ctx.l <= len(good):
        items, good_field = ctx.layout(1, good)
        parts = [f, good_field, "01"]
        for bp, name in zip(prof.blocks, names):
            if bp.good:
                parts += (_field(bp.rank, ctx.width_k), name[cut:])
            else:
                parts.append(name)
        return Encoding(1, "".join(parts), items), prof, None
    bad = {bp.block: bp.prefix for bp in prof.blocks if not bp.good}
    sel = _select(coder, f, bad)
    items, good_field = ctx.layout(2, good, sel.W)
    parts = [f, good_field, "01", *(names[i - 1] for i in good), *bad.values()]
    parts += [names[j - 1][cut:] for j in bad if j not in sel.W]
    return Encoding(2, "".join(parts), items), prof, sel


# ---------------------------------------------------------------------------
# Decoders


def decode(coder: Coder, encoding: Encoding) -> StepInstance:
    """Reconstruct the instance from its code, using only the machine.

    The coder's advice function is called once, on the result, as a
    cross-check: the decoded instance must map to the advice string
    recovered from the code (see _decoded).

    Good blocks are recovered by rerunning the machine's prequery side
    and indexing into its heavy-prefix list. In case 2 the unselected bad
    blocks come straight from stored prefix and suffix bits, and each
    selected block is recovered by running the machine with substituted
    thresholds (see _substituted_steps: true steps for known blocks, the
    first rank past its prefix group for each still-pending one) and
    taking the answer whose probability is above 1/2.
    """
    ctx = coder.ctx
    r = BitReader(encoding.bits)
    f = r.take(ctx.k)
    raw = r.take_doubled()
    w = ctx.index_width
    if w == 0:
        if raw:
            raise EncodingFormatError("index section must be empty when M = 1")
        good = (1,) if encoding.case == 1 else ()
    else:
        if len(raw) % w:
            raise EncodingFormatError("index section is not a whole number of fields")
        good_list = []
        for j in range(0, len(raw), w):
            v = int(raw[j : j + w], 2) + 1
            if good_list and v <= good_list[-1]:
                raise EncodingFormatError("good indices must strictly increase")
            if v > ctx.M:
                raise DecodeError(f"good index {v} names no block of {ctx.M}")
            good_list.append(v)
        good = tuple(good_list)
    if (encoding.case == 1) != (ctx.l <= len(good)):
        raise EncodingFormatError("case tag contradicts the good-block count")
    good_set = set(good)
    names: dict[int, str] = {}
    cut = ctx.n - ctx.p
    if encoding.case == 1:
        for i in range(1, ctx.M + 1):
            if i in good_set:
                rank_bits = r.take(ctx.width_k)
                names[i] = _heavy_name(coder, i, f, rank_bits, r.take(ctx.p))
            else:
                names[i] = r.take(ctx.n)
    else:
        for i in good:
            names[i] = r.take(ctx.n)
        bad = [i for i in range(1, ctx.M + 1) if i not in good_set]
        prefixes = {j: r.take(cut) for j in bad}
        sel = _select(coder, f, prefixes)
        chosen = set(sel.W)
        for j in bad:
            if j not in chosen:
                names[j] = prefixes[j] + r.take(ctx.p)
        prefix_of = {i: names[i][:cut] for i in good}
        prefix_of.update(prefixes)
        for pivot, steps in _pivot_walk(ctx, sel.W, names, prefix_of):
            names[pivot] = prefix_of[pivot] + _majority_suffix(coder, pivot, f, steps)
    r.expect_end()
    return _decoded(coder, names, f)


def _decoded(coder: Coder, names, f) -> StepInstance:
    """The instance named by names, refused unless its advice string is f."""
    ctx = coder.ctx
    instance = StepInstance(
        ctx.M, ctx.n, tuple(rank_of(names[i]) for i in range(1, ctx.M + 1))
    )
    if coder.advice_fn(instance) != f:
        raise DecodeError("decoded instance does not reproduce the advice string")
    return instance


def _substituted_steps(M, p, names, prefix_of, pending) -> tuple[int, ...]:
    """Per-block thresholds used while a selected block is being recovered.

    A known block answers by its true step. A pending block is known only
    up to its prefix group, the 2**p steps sharing its leading n-p bits; it
    answers by the first rank past that group, so its words are answered 1
    exactly when their prefix sorts after the block's. For the last group
    that threshold is N + 1.
    """
    return tuple(
        (int(prefix_of[i] or "0", 2) + 1) * 2**p + 1
        if i in pending
        else rank_of(names[i])
        for i in range(1, M + 1)
    )


def _pivot_walk(ctx: EncodingContext, W, names, prefix_of):
    """Each pick in order with the steps it is recovered under; a pick turns
    known, its name read from names, only once the caller is done with it."""
    pending = set(W)
    for pivot in W:
        yield pivot, _substituted_steps(ctx.M, ctx.p, names, prefix_of, pending)
        pending.discard(pivot)


def _heavy_name(coder: Coder, block, advice, rank_bits, suffix) -> str:
    """A good block's name: the heavy prefix its rank field names, then its
    stored suffix."""
    rank = int(rank_bits, 2) if rank_bits else 0
    heavy = weight_analysis(coder, block, advice).heavy
    if rank >= len(heavy):
        raise DecodeError(f"block {block} has no heavy prefix at rank {rank}")
    return heavy[rank] + suffix


def _majority_suffix(coder: Coder, block, advice, steps) -> str:
    """A selected block's last p bits: the answer the machine, run on it
    under the substituted thresholds steps, gives with probability above 1/2."""
    dist = run(coder.computer, block, advice, steps, width=coder.ctx.p)
    suffix = next(
        (a for a, prob in dist.items() if 2 * prob.numerator > prob.denominator), None
    )
    if suffix is None:
        raise DecodeError(f"no outcome for block {block} wins a strict majority")
    return suffix


# ---------------------------------------------------------------------------
# Single-block scheme


def _single_check(computer):
    """The single scheme's preconditions; returns its width p = k + 1."""
    if computer.M != 1:
        raise ValueError("the single scheme needs M = 1")
    p = computer.advice_len + 1
    if p > computer.n:
        raise ValueError("the single scheme needs k + 1 <= n")
    if p > computer.output_width:
        raise ValueError("the single scheme reads k + 1 cells, more than the subject writes")
    return p


def single_coder(computer, advice_fn, params=DEFAULT_PARAMS) -> Coder:
    """The single scheme's coder: M = 1, p = k + 1 and l = 1."""
    return Coder(computer, advice_fn, _single_check(computer), 1, params)


def _single_ctx(coder: Coder) -> EncodingContext:
    ctx = coder.ctx
    if (ctx.M, ctx.p) != (1, ctx.k + 1):
        raise ValueError("the single scheme needs a coder with M = 1 and p = k + 1")
    return ctx


def single_block_bound(n, k, params=DEFAULT_PARAMS) -> Fraction:
    """Query floor certified by the single-block scheme: C N / 2^(2k+2)."""
    return params.C * Fraction(2**n, 2 ** (2 * k + 2))


def encode_single(coder: Coder, instance) -> Encoding:
    """One-block code: advice, then either suffix plus rank or bare prefix.

    The case pivots on whether the machine weights the step's own prefix
    above C at p = k + 1. Case 2 always costs exactly n - 1 bits.
    """
    ctx = _single_ctx(coder)
    k, cut = ctx.k, ctx.n - ctx.p
    prof = profile(coder, instance)
    f, bp = prof.advice, prof.blocks[0]
    if not bp.good:
        return Encoding(2, f + bp.prefix, _items((("advice", k), ("prefix", cut))))
    rank_bits = _field(bp.rank, ctx.width_k)
    items = _items((("advice", k), ("suffix", ctx.p), ("rank", len(rank_bits))))
    return Encoding(1, f + instance.names[0][cut:] + rank_bits, items)


def decode_single(coder: Coder, encoding: Encoding) -> StepInstance:
    """Reconstruct the one step from its code, as decode does a block's."""
    ctx = _single_ctx(coder)
    r = BitReader(encoding.bits)
    f = r.take(ctx.k)
    if encoding.case == 1:
        suffix = r.take(ctx.p)
        name = _heavy_name(coder, 1, f, r.take(ctx.width_k), suffix)
    else:
        prefix = r.take(ctx.n - ctx.p)
        steps = _substituted_steps(1, ctx.p, {}, {1: prefix}, {1})
        name = prefix + _majority_suffix(coder, 1, f, steps)
    r.expect_end()
    return _decoded(coder, {1: name}, f)


# ---------------------------------------------------------------------------
# Sweep-level verification


class PigeonholeReport(NamedTuple):
    total: int
    injective: bool
    collisions: tuple[tuple[str, str], ...]
    min_length: int
    max_length: int
    case1_count: int
    case2_count: int
    long_count: int

    @property
    def ok(self) -> bool:
        """Codes are one to one and at least one is as long as a raw name."""
        return self.injective and self.long_count >= 1


def census(pairs, full_length: int) -> PigeonholeReport:
    """Injectivity and length census of a sweep's (instance, encoding) pairs.

    full_length is the raw length M * n. A decodable code cannot shorten
    every instance: some code must reach it. The census observes that
    fact rather than assuming it.
    """
    seen: dict = {}
    collisions = []
    lengths = []
    cases = {1: 0, 2: 0}
    long_count = 0
    for instance, enc in pairs:
        key = (enc.case, enc.bits)
        if key in seen:
            collisions.append((seen[key].literal(), instance.literal()))
        else:
            seen[key] = instance
        lengths.append(len(enc))
        cases[enc.case] += 1
        if len(enc) >= full_length:
            long_count += 1
    return PigeonholeReport(
        total=len(lengths),
        injective=not collisions,
        collisions=tuple(collisions),
        min_length=min(lengths) if lengths else 0,
        max_length=max(lengths) if lengths else 0,
        case1_count=cases[1],
        case2_count=cases[2],
        long_count=long_count,
    )


def verify_pigeonhole(coder: Coder) -> PigeonholeReport:
    """Encode every instance afresh and census the codes."""
    M, n = coder.ctx.M, coder.ctx.n
    instances = enumerate_instances(M, n)
    return census(((instance, encode(coder, instance)) for instance in instances), M * n)


# ---------------------------------------------------------------------------
# Per-instance invariant audit


class AuditReport(NamedTuple):
    """Every exactly checkable scheme invariant, for one instance.

    Selection fields are vacuously true for case 1.
    """

    instance: str
    case: int
    length: int
    expected: int
    length_matches: bool
    rank_ok: bool
    mass_ok: bool
    certificate: InequalityReport | None
    certificate_ok: bool
    selection: LwssResult | None
    selection_distinct: bool
    selection_floor_ok: bool
    selection_cross_ok: bool
    selection_m_ok: bool
    distance_ok: bool
    distances: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return all(getattr(self, attr) for _, attr in AUDIT_CHECKS)


# The audit's pass/fail flags, as (lemmas report column, AuditReport
# attribute) pairs in column order; AuditReport.ok is their conjunction.
AUDIT_CHECKS = (
    ("length-ok", "length_matches"),
    ("rank-ok", "rank_ok"),
    ("mass-ok", "mass_ok"),
    ("certificate-ok", "certificate_ok"),
    ("selection-distinct", "selection_distinct"),
    ("selection-floor", "selection_floor_ok"),
    ("selection-cross", "selection_cross_ok"),
    ("selection-m", "selection_m_ok"),
    ("distance-ok", "distance_ok"),
)


def mass_within_queries(coder: Coder, advice) -> bool:
    """Whether every input block's own query mass is at most T, for one advice.

    Each block's verdict is its weight analysis's mass_ok.
    """
    return all(
        weight_analysis(coder, i, advice).mass_ok for i in range(1, coder.ctx.M + 1)
    )


def audit_instance(coder: Coder, instance) -> AuditReport:
    """Check every scheme invariant on one instance.

    Only the encoding, profile and selection are per instance. The
    inequality reports, the rank limit, the distance bound and the
    selection's Rounds record (its round-count verdict and integer survivor
    floors) come from the context, the advice from the profile and the mass
    verdicts from the weight analyses (see EncodingContext and
    mass_within_queries). A pivot's substitution distance is
    2 - 2 * model.overlap of its substituted and true post-oracle states,
    both unit vectors, since prequery_state checks norm^2 = 1 and the
    oracle maps distinct prequery terms to distinct keys; the computer
    memoizes each overlap (see model.overlap).
    """
    ctx = coder.ctx
    enc, prof, selection = _encode(coder, instance)
    f, lp = prof.advice, prof.l_prime

    rank_ok = all(bp.rank < ctx.rank_limit for bp in prof.blocks if bp.good)
    mass_ok = mass_within_queries(coder, f)

    certificate = (
        check_inequalities(ctx, prof) if ctx.T >= 1 else None
    )
    certified = certificate.certified if certificate else False
    certificate_ok = (not certified) or len(enc) < ctx.M * ctx.n

    sel_distinct = sel_floor = sel_cross = sel_m = distance_ok = True
    distances: tuple = ()
    if enc.case == 2:
        sel_distinct = len(set(selection.W)) == len(selection.W)
        rounds = ctx.rounds(ctx.M - lp)
        sizes = selection.survivor_sizes
        sel_floor = len(sizes) == len(rounds.floors) and all(
            size >= floor for size, floor in zip(sizes, rounds.floors)
        )
        if selection.threshold is not None:
            sel_cross = all(v < selection.threshold for (_, _, v) in selection.crosses)
        sel_m = selection.m == rounds.m and rounds.m_ok
        cut = ctx.n - ctx.p
        names = dict(enumerate(instance.names, 1))
        prefix_of = {i: name[:cut] for i, name in names.items()}
        distances = tuple(
            2 - 2 * overlap(coder.computer, pivot, f, steps, instance.steps)
            for pivot, steps in _pivot_walk(ctx, selection.W, names, prefix_of)
        )
        distance_ok = all(d <= ctx.distance_bound for d in distances)

    expected = expected_length(
        ctx, lp, enc.case, selected=len(selection.W) if selection else 0
    )
    return AuditReport(
        instance=instance.literal(),
        case=enc.case,
        length=len(enc),
        expected=expected,
        length_matches=len(enc) == expected,
        rank_ok=rank_ok,
        mass_ok=mass_ok,
        certificate=certificate,
        certificate_ok=certificate_ok,
        selection=selection,
        selection_distinct=sel_distinct,
        selection_floor_ok=sel_floor,
        selection_cross_ok=sel_cross,
        selection_m_ok=sel_m,
        distance_ok=distance_ok,
        distances=distances,
    )
