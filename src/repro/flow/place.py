"""Simulated-annealing placement.

Standard VPR-style annealer over slice and IOB components: the cost is the
half-perimeter wirelength (HPWL) of all signal nets, moves are single-
component relocations or pairwise swaps, and the cooling schedule adapts
the starting temperature to the observed move-delta distribution.

Constraints honoured (the paper's phase-1/phase-2 floorplanning):

* ``LOC`` pins a component to a site — it never moves;
* an ``AREA_GROUP`` ``RANGE`` confines every matching component to its
  rectangle (module-region placement);
* ``PROHIBIT`` removes tiles from the site pool;
* a *guide* (a previously-placed design, paper §3.2 "guided floorplanning")
  seeds matching components at their old sites and locks them.

Runtime scales with the number of movable components — this is what the
PNR experiment measures when it compares module-sized against full-chip
place-and-route.

The inner loop keeps component tile positions and per-net HPWL costs in
flat arrays with a CSR net→terms index built once per run.  Every move's
affected-net working set (gather indices, reduceat boundaries, per-net
term tuples) is precomputed per component, so evaluating a move is pure
coordinate lookups: wide unions gather the term coordinates in one
fancy-indexing pass and reduce them with ``np.minimum.reduceat`` /
``np.maximum.reduceat``, narrow ones walk the precomputed indices
directly — neither path re-resolves component objects or net membership
per term.

A per-net dict reference implementation lives in
``tests/flow/scalar_ref.py`` as a subclass overriding the cost hooks
(:meth:`Placer._total_cost`, :meth:`Placer._try_move`).  It draws from
the seeded RNG in exactly the same order and computes bit-identical
(integer) HPWL deltas, so **the same seed produces the same placement on
either implementation** — ``tests/flow/test_vectorized.py`` asserts this
site-for-site.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..devices import Device, IobSite, get_device, parse_slice_site
from ..devices.geometry import NUM_GCLK
from ..errors import PlacementError
from ..obs import current_metrics
from ..utils import make_rng
from .floorplan import Constraints, RegionRect, full_device_region
from .ncd import NcdDesign, SliceComp

SliceSite = tuple[int, int, int]


@dataclass
class PlacementStats:
    initial_cost: float = 0.0
    final_cost: float = 0.0
    moves_attempted: int = 0
    moves_accepted: int = 0
    temperatures: int = 0
    seconds: float = 0.0
    movable: int = 0
    fixed: int = 0


@dataclass
class _CompState:
    name: str
    is_iob: bool
    region: RegionRect | None = None      # slices only
    fixed: bool = False
    site: object = None                   # SliceSite or IobSite
    nets: list[str] = field(default_factory=list)


class Placer:
    """One placement run over an :class:`NcdDesign`."""

    def __init__(
        self,
        design: NcdDesign,
        constraints: Constraints | None = None,
        *,
        guide: NcdDesign | None = None,
        seed: int | None = None,
        effort: float = 1.0,
    ):
        self.design = design
        self.device: Device = get_device(design.part)
        self.constraints = constraints or Constraints()
        self.constraints.validate(self.device)
        self.guide = guide
        self.rng = make_rng(seed)
        self.effort = max(0.1, effort)
        self.stats = PlacementStats()
        self._clip_cache: dict[RegionRect, RegionRect] = {}

    # -- public ------------------------------------------------------------------

    def run(self) -> PlacementStats:
        t0 = time.perf_counter()
        self._assign_gclks()
        self._build_state()
        self._initial_placement()
        self._build_arrays()
        self._anneal()
        self._commit()
        self.stats.seconds = time.perf_counter() - t0
        m = current_metrics()
        m.count("flow.place.moves_attempted", self.stats.moves_attempted)
        m.count("flow.place.moves_accepted", self.stats.moves_accepted)
        m.count("flow.place.temperatures", self.stats.temperatures)
        return self.stats

    # -- setup ---------------------------------------------------------------------

    def _assign_gclks(self) -> None:
        gclks = list(self.design.gclks.values())
        if len(gclks) > NUM_GCLK:
            raise PlacementError(
                f"{len(gclks)} clock ports exceed the {NUM_GCLK} global clock buffers"
            )
        taken = {g.index for g in gclks if g.index is not None}
        # guided flows keep each clock on the buffer the base design used,
        # preserving the module interface across re-implementation
        if self.guide is not None:
            for g in gclks:
                if g.index is not None:
                    continue
                ref = self.guide.gclks.get(g.name)
                if ref is not None and ref.index is not None and ref.index not in taken:
                    g.index = ref.index
                    taken.add(ref.index)
        free = iter(i for i in range(NUM_GCLK) if i not in taken)
        for g in gclks:
            if g.index is None:
                g.index = next(free)

    def _region_of(self, comp: SliceComp) -> RegionRect:
        group = self.constraints.group_of(comp.name)
        if group is None or group.range is None:
            return full_device_region(self.device)
        return group.range

    def _build_state(self) -> None:
        self.comps: dict[str, _CompState] = {}
        for comp in self.design.slices.values():
            self.comps[comp.name] = _CompState(
                comp.name, is_iob=False, region=self._region_of(comp)
            )
        for iob in self.design.iobs.values():
            self.comps[iob.name] = _CompState(iob.name, is_iob=True)
        # net incidence (signal nets only; clock nets ride the global network)
        self.net_terms: dict[str, list[str]] = {}
        for net in self.design.nets.values():
            if net.is_clock:
                continue
            terms = [net.source.comp] + [s.ref.comp for s in net.sinks]
            terms = [t for t in terms if t in self.comps]
            if len(set(terms)) < 2:
                continue
            self.net_terms[net.name] = terms
            for t in set(terms):
                self.comps[t].nets.append(net.name)

    def _initial_placement(self) -> None:
        dev = self.device
        prohibited = self.constraints.prohibited
        self.slice_occ: dict[SliceSite, str] = {}
        self.iob_occ: dict[IobSite, str] = {}

        # 1. explicit LOCs and guide seeds
        for state in self.comps.values():
            loc = self.constraints.loc_of(state.name)
            if loc is not None and not state.is_iob:
                site = parse_slice_site(loc)
                self._claim(state, site, fixed=True)
        if self.guide is not None:
            self._apply_guide()

        # 2. everything else, randomly within its region.  The legal-site
        # list of each distinct region is enumerated once and filtered per
        # component, preserving the exact (row-major, slice-minor) order the
        # per-component enumeration produced.
        all_iob_sites = list(dev.geometry.iob_sites)
        region_sites: dict[RegionRect, list[SliceSite]] = {}
        for state in self.comps.values():
            if state.site is not None:
                continue
            if state.is_iob:
                free = [s for s in all_iob_sites if s not in self.iob_occ]
                if not free:
                    raise PlacementError("out of IOB sites")
                self._claim(state, free[int(self.rng.integers(len(free)))])
            else:
                pool = region_sites.get(state.region)
                if pool is None:
                    pool = [
                        (r, c, s)
                        for r, c in state.region.clip_to(dev).sites()
                        if (r, c) not in prohibited
                        for s in (0, 1)
                    ]
                    region_sites[state.region] = pool
                sites = [site for site in pool if site not in self.slice_occ]
                if not sites:
                    raise PlacementError(
                        f"{state.name}: no free slice site in region {state.region} "
                        f"({len(self.design.slices)} slices to place)"
                    )
                self._claim(state, sites[int(self.rng.integers(len(sites)))])

    def _apply_guide(self) -> None:
        assert self.guide is not None
        for name, comp in self.guide.slices.items():
            state = self.comps.get(name)
            if state is None or state.is_iob or comp.site is None or state.site is not None:
                continue
            site = tuple(comp.site)
            if site not in self.slice_occ and state.region.contains(site[0], site[1]):
                self._claim(state, site, fixed=True)
        for name, iob in self.guide.iobs.items():
            state = self.comps.get(name)
            if state is None or not state.is_iob or iob.site is None or state.site is not None:
                continue
            if iob.site not in self.iob_occ:
                self._claim(state, iob.site, fixed=True)

    def _claim(self, state: _CompState, site, fixed: bool = False) -> None:
        if state.is_iob:
            if site in self.iob_occ:
                raise PlacementError(
                    f"IOB site {site.name} wanted by {state.name} and {self.iob_occ[site]}"
                )
            self.iob_occ[site] = state.name
        else:
            if site in self.slice_occ:
                raise PlacementError(
                    f"site {site} wanted by {state.name} and {self.slice_occ[site]}"
                )
            self.slice_occ[site] = state.name
        state.site = site
        state.fixed = state.fixed or fixed

    # -- array state -----------------------------------------------------------------

    #: Affected-term count at which a move evaluation switches from the
    #: precomputed-index python path to the numpy reduceat path (numpy's
    #: per-call overhead only pays off on wide unions).
    _VEC_THRESHOLD = 96

    def _build_arrays(self) -> None:
        """Mirror component tiles and net incidence into flat arrays.

        * ``_rows``/``_cols`` (numpy) and ``_rows_l``/``_cols_l`` (list
          mirrors for scalar reads): current tile of component ``i``;
        * ``_net_ptr``/``_net_flat``: CSR of term component indices per net;
        * ``_aff_single[i]``: precomputed gather plan covering every net
          incident to component ``i`` — the whole per-move working set for
          a move into an empty site (swap plans are built and memoized per
          component pair on first use).

        Costs are integer HPWLs, so every move's delta is exact.
        """
        names = list(self.comps)
        self._comp_idx = {n: i for i, n in enumerate(names)}
        n = len(names)
        rows = np.empty(n, np.int64)
        cols = np.empty(n, np.int64)
        for i, name in enumerate(names):
            rows[i], cols[i] = self._tile_of(self.comps[name])
        self._rows, self._cols = rows, cols
        self._rows_l = rows.tolist()
        self._cols_l = cols.tolist()

        net_names = list(self.net_terms)
        self._net_idx = {nm: j for j, nm in enumerate(net_names)}
        ptr = [0]
        flat: list[int] = []
        for nm in net_names:
            flat.extend(self._comp_idx[t] for t in self.net_terms[nm])
            ptr.append(len(flat))
        self._net_ptr = np.asarray(ptr, np.int64)
        self._net_flat = np.asarray(flat, np.int64)

        self._comp_nets: list[np.ndarray] = [
            np.asarray(
                sorted({self._net_idx[nm] for nm in self.comps[name].nets}),
                np.int64,
            )
            for name in names
        ]
        self._aff_single = [self._gather_plan(nets) for nets in self._comp_nets]
        self._aff_pairs: dict[tuple[int, int], tuple] = {}
        self._net_costs: list[int] = [0] * len(net_names)
        # numpy coordinate mirrors are synced lazily: moves record dirty
        # component indices and the reduceat path flushes them on demand
        self._dirty: list[int] | None = []
        self._dirty_cap = max(64, n)  # not-a-frame-count

    def _gather_plan(self, nets: np.ndarray) -> tuple:
        """Precomputed working set for evaluating a set of nets.

        Returns ``(nids, terms_by_net, flat, bounds, vectorize)``: ``nids``
        are the net ids (for cost-cache reads/writes), ``terms_by_net``
        holds each net's term component indices for the python path,
        ``flat``/``bounds`` feed the numpy gather + reduceat path, and
        ``vectorize`` picks between the paths by total term count.
        """
        if nets.size == 0:
            return (), (), None, None, False
        starts = self._net_ptr[nets].tolist()
        ends = self._net_ptr[nets + 1].tolist()
        flat = np.concatenate(
            [self._net_flat[s:e] for s, e in zip(starts, ends)]
        )
        bounds = np.zeros(nets.size, np.int64)
        np.cumsum((self._net_ptr[nets + 1] - self._net_ptr[nets])[:-1], out=bounds[1:])
        terms_by_net = tuple(
            tuple(self._net_flat[s:e].tolist()) for s, e in zip(starts, ends)
        )
        return (
            tuple(nets.tolist()), terms_by_net, flat, bounds,
            flat.size >= self._VEC_THRESHOLD,
        )

    def _affected_plan(self, i: int, j: int | None) -> tuple:
        """Gather plan for the union of two components' incident nets."""
        if j is None:
            return self._aff_single[i]
        key = (i, j) if i < j else (j, i)
        plan = self._aff_pairs.get(key)
        if plan is None:
            plan = self._gather_plan(
                np.union1d(self._comp_nets[key[0]], self._comp_nets[key[1]])
            )
            self._aff_pairs[key] = plan
        return plan

    def _mark_dirty(self, i: int) -> None:
        """Record that component ``i``'s list coordinates changed, so the
        numpy mirror patches it on the next flush."""
        d = self._dirty
        if d is not None:
            if len(d) < self._dirty_cap:
                d.append(i)
            else:
                self._dirty = None  # too stale to patch; full resync instead

    def _flush_coords(self) -> None:
        """Bring the numpy coordinate mirrors up to date with the lists."""
        if self._dirty is None:
            self._rows = np.asarray(self._rows_l, np.int64)
            self._cols = np.asarray(self._cols_l, np.int64)
        elif self._dirty:
            rows, cols = self._rows, self._cols
            rl, cl = self._rows_l, self._cols_l
            for i in self._dirty:
                rows[i] = rl[i]
                cols[i] = cl[i]
        self._dirty = []

    # -- cost -------------------------------------------------------------------------

    def _tile_of(self, state: _CompState) -> tuple[int, int]:
        if state.is_iob:
            return self.device.geometry.iob_tile(state.site)
        r, c, _ = state.site
        return r, c

    def _total_cost(self) -> float:
        """HPWL of every signal net; refreshes the per-net cost cache."""
        if self._net_costs:
            self._flush_coords()
            _, _, flat, bounds, _ = self._gather_plan(
                np.arange(len(self._net_costs), dtype=np.int64)
            )
            r = self._rows[flat]
            c = self._cols[flat]
            costs = (
                np.maximum.reduceat(r, bounds) - np.minimum.reduceat(r, bounds)
            ) + (np.maximum.reduceat(c, bounds) - np.minimum.reduceat(c, bounds))
            self._net_costs = costs.tolist()
        return sum(self._net_costs)

    # -- annealing ----------------------------------------------------------------------

    def _anneal(self) -> None:
        movable = [s for s in self.comps.values() if not s.fixed]
        self.stats.movable = len(movable)
        self.stats.fixed = len(self.comps) - len(movable)
        cost = self._total_cost()
        self.stats.initial_cost = cost
        if not movable or not self.net_terms:
            self.stats.final_cost = cost
            return

        try_move = self._try_move
        # temperature from the spread of a random-move sample
        deltas = []
        for _ in range(min(50, 10 * len(movable))):
            d = try_move(movable, temperature=math.inf, dry=True)
            if d is not None:
                deltas.append(abs(d))
        temp = 2.0 * (float(np.std(deltas)) + 1.0) if deltas else 1.0

        inner = max(20, int(self.effort * 12 * len(movable)))
        stall = 0
        while stall < 4 and temp > 1e-3:
            accepted = 0
            for _ in range(inner):
                d = try_move(movable, temp)
                self.stats.moves_attempted += 1
                if d is not None:
                    accepted += 1
                    cost += d
                    self.stats.moves_accepted += 1
            self.stats.temperatures += 1
            ratio = accepted / inner
            stall = stall + 1 if ratio < 0.02 else 0
            # VPR-style adaptive cooling: cool slowly near 44% acceptance
            if ratio > 0.96:
                temp *= 0.5
            elif ratio > 0.4:
                temp *= 0.9
            elif ratio > 0.1:
                temp *= 0.95
            else:
                temp *= 0.8
        self.stats.final_cost = cost

    def _propose(self, movable: list[_CompState]):
        """Draw one candidate move: (state, target site, displaced comp).

        Every cost implementation calls this, so the RNG stream is
        consumed identically regardless of how the cost delta is evaluated.  Returns None for
        illegal or no-op proposals (still counted as attempts).
        """
        state = movable[int(self.rng.integers(len(movable)))]
        if state.is_iob:
            target = self._random_iob_site()
            other_name = self.iob_occ.get(target)
        else:
            target = self._random_slice_site(state)
            if target is None:
                return None
            other_name = self.slice_occ.get(target)
        if other_name == state.name:
            return None
        other = self.comps[other_name] if other_name else None
        if other is not None:
            if other.fixed:
                return None
            if not other.is_iob:
                # the displaced comp must be allowed at our current site
                r, c, _ = state.site
                if not other.region.contains(r, c):
                    return None
        return state, target, other

    def _accept(self, delta, temperature: float) -> bool:
        """Metropolis criterion; draws from the RNG only for uphill moves."""
        return delta <= 0 or (
            temperature > 0
            and self.rng.random() < math.exp(-delta / temperature)
        )

    def _try_move(self, movable: list[_CompState], temperature: float, dry: bool = False):
        """Propose one move; returns the accepted delta or None.

        The move is evaluated on hypothetically-patched coordinate lists;
        occupancy and component state are only touched (one ``_relocate``)
        when the move is actually committed, so rejected proposals cost no
        dictionary churn at all.
        """
        proposal = self._propose(movable)
        if proposal is None:
            return None
        state, target, other = proposal

        i = self._comp_idx[state.name]
        j = self._comp_idx[other.name] if other is not None else None
        nids, terms_by_net, flat, bounds, vectorize = self._affected_plan(i, j)
        costs = self._net_costs
        before = 0
        for nid in nids:
            before += costs[nid]

        rows_l, cols_l = self._rows_l, self._cols_l
        old_r, old_c = rows_l[i], cols_l[i]
        if state.is_iob:
            new_r, new_c = self.device.geometry.iob_tile(target)
        else:
            new_r, new_c = target[0], target[1]
        rows_l[i], cols_l[i] = new_r, new_c
        if j is not None:
            # the displaced comp swaps into state's old tile
            j_r, j_c = rows_l[j], cols_l[j]
            rows_l[j], cols_l[j] = old_r, old_c

        if vectorize:
            self._mark_dirty(i)
            if j is not None:
                self._mark_dirty(j)
            self._flush_coords()
            r = self._rows[flat]
            c = self._cols[flat]
            after_vals = (
                (np.maximum.reduceat(r, bounds) - np.minimum.reduceat(r, bounds))
                + (np.maximum.reduceat(c, bounds) - np.minimum.reduceat(c, bounds))
            ).tolist()
        else:
            after_vals = []
            append = after_vals.append
            for terms in terms_by_net:
                if len(terms) == 2:
                    a, b = terms
                    dr = rows_l[a] - rows_l[b]
                    dc = cols_l[a] - cols_l[b]
                    append((dr if dr >= 0 else -dr) + (dc if dc >= 0 else -dc))
                else:
                    rs = [rows_l[t] for t in terms]
                    cs = [cols_l[t] for t in terms]
                    append(max(rs) - min(rs) + max(cs) - min(cs))
        after = sum(after_vals)
        delta = after - before

        accept = self._accept(delta, temperature)
        if accept and not dry:
            self._relocate(state, target, other, state.site)
            if not vectorize:  # the flush above already synced the mirror
                self._mark_dirty(i)
                if j is not None:
                    self._mark_dirty(j)
            for nid, v in zip(nids, after_vals):
                costs[nid] = v
            return delta
        # reject (or dry run): restore the hypothetical coordinates
        rows_l[i], cols_l[i] = old_r, old_c
        if j is not None:
            rows_l[j], cols_l[j] = j_r, j_c
        if vectorize:
            # the numpy mirror saw the hypothetical values; re-patch it
            self._mark_dirty(i)
            if j is not None:
                self._mark_dirty(j)
        return delta if dry and accept else None

    def _relocate(self, state: _CompState, target, other, other_site) -> None:
        """Move ``state`` to ``target``, swapping ``other`` (if any) to
        ``other_site``.  Both occupancy entries are vacated before either is
        re-claimed so swaps cannot clobber each other."""
        occ = self.iob_occ if state.is_iob else self.slice_occ
        del occ[state.site]
        if other is not None:
            del occ[other.site]
        occ[target] = state.name
        state.site = target
        if other is not None:
            occ[other_site] = other.name
            other.site = other_site

    def _random_slice_site(self, state: _CompState) -> SliceSite | None:
        region = self._clip_cache.get(state.region)
        if region is None:
            region = state.region.clip_to(self.device)
            self._clip_cache[state.region] = region
        for _ in range(8):
            r = int(self.rng.integers(region.rmin, region.rmax + 1))
            c = int(self.rng.integers(region.cmin, region.cmax + 1))
            if (r, c) in self.constraints.prohibited:
                continue
            return (r, c, int(self.rng.integers(2)))
        return None

    def _random_iob_site(self) -> IobSite:
        sites = self.device.geometry.iob_sites
        return sites[int(self.rng.integers(len(sites)))]

    # -- commit ---------------------------------------------------------------------------

    def _commit(self) -> None:
        for state in self.comps.values():
            if state.is_iob:
                self.design.iobs[state.name].site = state.site
            else:
                self.design.slices[state.name].site = state.site


def place(
    design: NcdDesign,
    constraints: Constraints | None = None,
    *,
    guide: NcdDesign | None = None,
    seed: int | None = None,
    effort: float = 1.0,
) -> PlacementStats:
    """Place ``design`` in place; see :class:`Placer`."""
    return Placer(design, constraints, guide=guide, seed=seed, effort=effort).run()
