"""Networked Cournot competition over shared markets.

Firms sell into markets through a fixed participation pattern. Firm i
chooses one quantity per market it serves, pays a linear production
cost, and receives the market price

    P_j(S_j) = q - p S_j^sigma_d,    S_j = total quantity in market j,

where the slope p is random per demand sample. Market capacities
couple the firms through sum_i D_i u_i <= b, split evenly as b_i = b/N
so the constraint fits the per-agent aggregate form. With the price
decreasing in supply and sigma_d in (1, 3], the stacked cost gradient
is monotone on the orthant, which is what the solver assumptions need;
an increasing price is available for experiments but has to be
requested explicitly.

The default configuration is the ten-firm, seven-market benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockvec import AgentPartition
from .errors import ConfigurationError, check_field_types, is_integer, is_list
from .graph import CommGraph, generate_graph
from .operators import GameProblem
from .stochastic import SamplingOracle

__all__ = [
    "DEFAULT_PARTICIPATION",
    "CournotConfig",
    "CournotDemandOracle",
    "generate",
    "estimate_lipschitz",
]

# markets served by each of the ten default firms (ascending market indices)
DEFAULT_PARTICIPATION: tuple[tuple[int, ...], ...] = (
    (0, 3),
    (0,),
    (0, 2, 4),
    (1, 6),
    (2, 6),
    (6,),
    (2, 5),
    (1, 2, 3, 5),
    (0, 4),
    (3, 4, 5),
)


@dataclass(frozen=True)
class CournotConfig:
    """Generator knobs; the defaults reproduce the benchmark instance."""

    num_firms: int = 10
    num_markets: int = 7
    participation: tuple[tuple[int, ...], ...] | None = None
    demand_q: float = 400.0
    demand_slope: float = 0.02
    demand_sd: float = 0.005
    demand_exponent: float = 1.2
    demand_sign: float = -1.0
    allow_nonmonotone: bool = False
    cost_mean: float = 2.0
    cost_sd: float = 1.0
    cost_floor: float = 0.6
    cap_mean: float = 250.0
    cap_sd: float = 50.0
    cap_floor: float = 0.0
    budget_lo: float = 5.0
    budget_hi: float = 10.0
    graph: str = "ring"
    graph_p: float | None = None
    lipschitz_pairs: int = 10_000
    lipschitz_margin: float = 1.1
    seed: int = 0

    @classmethod
    def from_settings(cls, settings, **overrides) -> "CournotConfig":
        """The config of a settings mapping; a malformed one is a ConfigurationError."""
        if not isinstance(settings, dict):
            raise ConfigurationError("cournot config must be a mapping", field="config")
        try:
            return cls(**{**settings, **overrides})
        except TypeError as exc:  # an unknown setting
            raise ConfigurationError(f"bad cournot config: {exc}", field="config") from None

    def __post_init__(self):
        check_field_types(self, skip=("participation",))
        part = self.participation
        if part is not None and not (is_list(part) and all(
                is_list(row) and all(map(is_integer, row)) for row in part)):
            raise ConfigurationError(
                f"participation must be a list of integer lists, not {type(part).__name__}",
                field="participation",
            )
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0", field="seed")
        if not 1.0 < self.demand_exponent <= 3.0:
            raise ConfigurationError(
                f"demand exponent must lie in (1, 3] for a monotone game, "
                f"got {self.demand_exponent}",
                field="demand_exponent",
            )
        if self.demand_sign not in (-1.0, 1.0):
            raise ConfigurationError(
                "demand sign must be -1.0 (price decreasing in supply) or 1.0",
                field="demand_sign",
            )
        if self.demand_sign > 0 and not self.allow_nonmonotone:
            raise ConfigurationError(
                "an increasing price makes the game non-monotone; "
                "set allow_nonmonotone to generate it anyway",
                field="demand_sign",
            )
        if self.demand_slope <= 0 or self.demand_sd < 0:
            raise ConfigurationError(
                "demand slope must be positive and its deviation nonnegative",
                field="demand_slope",
            )
        for name in ("cost_sd", "cap_sd"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0", field=name)
        if not 0 < self.budget_lo <= self.budget_hi:
            raise ConfigurationError(
                "market budgets need 0 < low <= high", field="budget_lo"
            )
        if self.lipschitz_pairs < 1:
            raise ConfigurationError(
                "need at least one sample pair", field="lipschitz_pairs"
            )
        if self.num_firms < 1 or self.num_markets < 1:
            raise ConfigurationError(
                "need at least one firm and one market", field="num_firms"
            )
        if part is None:
            if (self.num_firms, self.num_markets) != (10, 7):
                raise ConfigurationError(
                    "a participation map is required when the firm or market "
                    "count differs from the 10x7 default",
                    field="participation",
                )
            part = DEFAULT_PARTICIPATION
        part = tuple(tuple(row) for row in part)
        if len(part) != self.num_firms:
            raise ConfigurationError(
                f"participation lists {len(part)} firms, expected {self.num_firms}",
                field="participation",
            )
        served = set()
        for i, row in enumerate(part):
            if len(row) == 0:
                raise ConfigurationError(
                    f"firm {i} participates in no market", field="participation"
                )
            if sorted(set(row)) != list(row):
                raise ConfigurationError(
                    f"markets of firm {i} must be strictly increasing",
                    field="participation",
                )
            if row[0] < 0 or row[-1] >= self.num_markets:
                raise ConfigurationError(
                    f"firm {i} references a market outside 0..{self.num_markets - 1}",
                    field="participation",
                )
            served.update(row)
        if served != set(range(self.num_markets)):
            missing = sorted(set(range(self.num_markets)) - served)
            raise ConfigurationError(
                f"markets {missing} have no participating firm", field="participation"
            )
        object.__setattr__(self, "participation", part)


class _MarketLayout:
    """Gather metadata: where each market's quantities live in the stack."""

    def __init__(self, partition: AgentPartition, participation: tuple, num_markets: int):
        self.partition = partition
        self.offsets = tuple(sl.start for sl in partition.primal_slices)
        self.widths = tuple(len(row) for row in participation)
        coords = [[] for _ in range(num_markets)]
        for i, markets in enumerate(participation):
            for pos, j in enumerate(markets):
                coords[j].append(self.offsets[i] + pos)
        # each market's quantities in ascending firm order, summed as one
        # segment, and each coordinate's market, firm offset, firm width
        # and position
        self.market_gather = np.array([c for row in coords for c in row], dtype=np.int64)
        self.market_starts = np.cumsum([0] + [len(row) for row in coords[:-1]])
        self.market_of = np.array([j for row in participation for j in row], dtype=np.int64)
        self._coord_firm_start = np.repeat(self.offsets, self.widths)
        self._coord_width = np.repeat(self.widths, self.widths)
        self._coord_pos = np.concatenate([np.arange(w) for w in self.widths])
        self._rows_size = 0
        self._rows_index = None

    def draw_rows(self, size: int) -> np.ndarray:
        """Index turning firm-major (size, width) draw blocks into one row per coordinate.

        Firm i's block of size * width_i draws starts at offset_i * size
        of a flat buffer; row c of buffer[index] lists the size draws of
        coordinate c in draw order. The index of the last size is kept.
        """
        if size != self._rows_size:
            first = self._coord_firm_start * size + self._coord_pos
            self._rows_index = first[:, None] + self._coord_width[:, None] * np.arange(size)
            self._rows_size = size
        return self._rows_index

    def slope_factor(self, u: np.ndarray, exponent: float) -> np.ndarray:
        """S~^s + s u S~^(s-1) for every coordinate of one point or of rows of points.

        S~ is the coordinate's market total, clamped at zero before the
        fractional powers so the oracle stays defined when iterates
        leave the box. A coordinate reads only the total of its own
        market, so on a firm's profile (its own and its partners'
        blocks) its own coordinates get the floats of the full point.
        """
        totals = np.add.reduceat(u[..., self.market_gather], self.market_starts, axis=-1)
        np.maximum(totals, 0.0, out=totals)
        # take, not fancy indexing, keeps rows of points C-ordered, so row
        # norms of the result sum as they do over per-point evaluations
        totals = totals.take(self.market_of, axis=-1)
        tmp = np.multiply(exponent, u)
        tmp += totals
        factor = np.power(totals, exponent - 1.0, out=totals)
        factor *= tmp
        return factor


class CournotDemandOracle(SamplingOracle):
    """Gradient sampler with a random demand slope per draw.

    Each draw perturbs the slope by a symmetric truncated Gaussian, so
    a single draw is unbiased for mean_gradient, the instance's
    pseudogradient. The gradient is affine in the slope, hence the
    mini-batch average equals one gradient evaluation at the averaged
    slope; sample_mean_stack exploits that instead of materializing
    per-draw gradients. A firm draws its (size, width) perturbations
    row by row from its stream into its block of one buffer; one _mean
    sums each coordinate's size draws as one contiguous row, over every
    coordinate at once. On one profile per firm, firm i's coordinates
    take the slope factor of row i.
    """

    def __init__(self, layout: _MarketLayout, costs: tuple, config: CournotConfig):
        self._layout = layout
        self.partition = layout.partition
        self._base = np.concatenate(costs) - config.demand_q
        self._pbar = config.demand_slope
        self._sd = config.demand_sd
        self._cut = 3.0 * config.demand_sd
        self._exp = config.demand_exponent
        self._sign = config.demand_sign

    def mean_gradient(self, u: np.ndarray) -> np.ndarray:
        """Deterministic stacked gradient at one point or at rows of points."""
        return self._base - self._sign * self._pbar * self._layout.slope_factor(u, self._exp)

    def sample_gradient_batch(self, agent, u, size, rng):
        own = self.partition.primal_slice(agent)
        factor = self._sign * self._layout.slope_factor(u, self._exp)[own]
        slopes = rng.normal(0.0, self._sd, size=(size, own.stop - own.start))
        slopes.clip(-self._cut, self._cut, out=slopes)
        slopes += self._pbar
        return self._base[own] - slopes * factor

    def _mean(self, draws: np.ndarray, factor: np.ndarray, base: np.ndarray, out: np.ndarray):
        """out = base - factor (pbar + mean slope perturbation), one row of draws per coordinate.

        draws holds standard normal draws and is scaled and clipped in
        place.
        """
        draws *= self._sd
        np.maximum(draws, -self._cut, out=draws)
        np.minimum(draws, self._cut, out=draws)
        # mean slope without materializing the per-draw shift by pbar
        mean_slope = np.add.reduce(draws, axis=1)
        mean_slope /= draws.shape[1]
        mean_slope += self._pbar
        mean_slope *= factor
        np.subtract(base, mean_slope, out=out)

    def sample_mean_stack(self, u, size, agents, generators, out):
        # only the draws go firm by firm; one _mean covers every coordinate,
        # so an unlisted firm's draws are zeros rather than stale memory
        layout = self._layout
        offsets, widths = layout.offsets, layout.widths
        eps = np.zeros(size * out.shape[0])
        for i, rng in zip(agents, generators):
            rng.standard_normal(out=eps[offsets[i] * size : (offsets[i] + widths[i]) * size])
        factor = self.partition.own_rows(layout.slope_factor(u, self._exp))
        factor *= self._sign
        self._mean(eps[layout.draw_rows(size)], factor, self._base, out)


_LIPSCHITZ_BLOCK = 512


def estimate_lipschitz(
    gradient_rows,
    lo: np.ndarray,
    hi: np.ndarray,
    seed: int,
    pairs: int = 10_000,
    margin: float = 1.1,
) -> float:
    """Empirical Lipschitz constant of a stacked gradient over the box [lo, hi].

    Samples uniform point pairs, takes the largest difference quotient,
    and inflates it by the margin. Deterministic in the seed.
    gradient_rows maps an array of row points to their stacked
    gradients, row by row. Pairs are drawn and evaluated
    _LIPSCHITZ_BLOCK at a time, in the order of one draw of all of
    them, so memory does not grow with the pair count.
    """
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for start in range(0, pairs, _LIPSCHITZ_BLOCK):
        count = min(_LIPSCHITZ_BLOCK, pairs - start)
        # one row-major block: row 2t is pair t's first point, row 2t+1 its second
        points = rng.uniform(lo, hi, size=(2 * count, lo.shape[0]))
        u_pts = points[0::2]
        v_pts = points[1::2]
        gaps = np.linalg.norm(u_pts - v_pts, axis=1)
        slopes = np.linalg.norm(gradient_rows(u_pts) - gradient_rows(v_pts), axis=1)
        keep = gaps >= 1e-12
        if np.any(keep):
            worst = max(worst, float(np.max(slopes[keep] / gaps[keep])))
    if worst == 0.0:
        raise ConfigurationError(
            "gradient appears constant; set the Lipschitz constant explicitly",
            field="lipschitz_pairs",
        )
    return margin * worst


def generate(config: CournotConfig | None = None) -> tuple[GameProblem, CournotDemandOracle, CommGraph]:
    """Draw one benchmark instance from the config's seed.

    The same config yields the same costs, capacities, budgets, graph,
    and Lipschitz estimate. Draw order: per-firm costs, per-firm
    capacities, then market budgets.
    """
    if config is None:
        config = CournotConfig()
    participation = config.participation
    n = config.num_firms
    m = config.num_markets
    dims = tuple(len(row) for row in participation)
    part = AgentPartition(dims, m)
    layout = _MarketLayout(part, participation, m)
    rng = np.random.default_rng(config.seed)
    costs = tuple(
        np.maximum(rng.normal(config.cost_mean, config.cost_sd, k), config.cost_floor)
        for k in dims
    )
    caps = tuple(
        np.maximum(rng.normal(config.cap_mean, config.cap_sd, k), config.cap_floor)
        for k in dims
    )
    cap_stack = np.concatenate(caps)
    if not np.any(cap_stack > 0.0):
        raise ConfigurationError("every capacity box is the single point 0", field="cap_mean")
    if np.any(cap_stack < 0.0):
        raise ConfigurationError("a negative capacity leaves its box empty", field="cap_floor")
    budget = rng.uniform(config.budget_lo, config.budget_hi, m)
    d_mats = []
    for i, markets in enumerate(participation):
        di = np.zeros((m, dims[i]))
        for pos, j in enumerate(markets):
            di[j, pos] = 1.0
        d_mats.append(di)
    share = budget / n
    interaction = []
    for i, markets in enumerate(participation):
        others = {
            l
            for j in markets
            for l in range(n)
            if j in participation[l] and l != i
        }
        interaction.append(np.array(sorted(others), dtype=np.int64))
    oracle = CournotDemandOracle(layout, costs, config)
    ell = estimate_lipschitz(
        oracle.mean_gradient,
        np.zeros(part.total_dim),
        cap_stack,
        config.seed,
        pairs=config.lipschitz_pairs,
        margin=config.lipschitz_margin,
    )
    problem = GameProblem(
        partition=part,
        pseudogradient=oracle.mean_gradient,
        D=tuple(d_mats),
        b=tuple(share.copy() for _ in range(n)),
        box_lo=tuple(np.zeros(k) for k in dims),
        box_hi=caps,
        lipschitz_ell=ell,
        interaction=tuple(interaction),
    )
    if config.graph == "erdos-renyi":
        graph = generate_graph(config.graph, n, p=config.graph_p, seed=config.seed + 1_000_003)
    else:
        graph = generate_graph(config.graph, n)
    return problem, oracle, graph
