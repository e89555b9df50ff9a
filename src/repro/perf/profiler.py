"""Hierarchical cycle-accounting profiler.

This is the reproduction's stand-in for the paper's measurement toolchain:

* Oprofile's module/function flat profile  -> :meth:`Profiler.module_breakdown`
  and :meth:`Profiler.function_breakdown` (Tables 1 and 8);
* ``rdtsc`` timestamps around handshake steps -> :meth:`Profiler.region` and
  :meth:`Profiler.now` (Tables 2, 5, 6, 7, 10);
* SoftSDV instruction traces -> the accumulated :class:`~repro.perf.isa.InstrMix`
  per function (Table 12) and derived CPI / path length (Table 11).

Instrumented code *charges* instruction mixes (or, for modelled non-crypto
components such as the kernel TCP stack, raw cycles) into the active
profiler.  Charges are attributed three ways at once:

* to the innermost open **region** (a node in a tree of nested
  context-manager scopes, e.g. ``handshake/get_client_kx/rsa_private_decryption``);
* to a flat **function** profile (self-time, like Oprofile);
* to a flat **module** profile (``libcrypto``, ``libssl``, ``httpd``,
  ``vmlinux``, ``other``).

Hot kernels charge the same short run of lines on every call (a Montgomery
square charges ten, a DES block four).  A :class:`Bill` holds such a run,
priced once per CPU model, and :meth:`Profiler.charge` applies a whole bill
in one call with the float results the separate lines would give.  A
:class:`DiscardProfiler` is the sink for a machine whose profile is thrown
away (the simulated client): it drops every charge.

A module-level *active profiler stack* lets deeply nested kernels charge
without threading a profiler object through every call; see
:func:`current`, :func:`activate` and the convenience wrappers
:func:`charge` / :func:`region`.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .cpu import CpuModel, PENTIUM4
from .isa import InstrMix, MixAccumulator

#: Module names mirroring Table 1 of the paper.
LIBCRYPTO = "libcrypto"
LIBSSL = "libssl"
HTTPD = "httpd"
VMLINUX = "vmlinux"
OTHER = "other"


@dataclass
class FunctionStats:
    """Flat (self-time) statistics for one named function."""

    name: str
    module: str
    cycles: float = 0.0
    calls: int = 0
    mix: MixAccumulator = field(default_factory=MixAccumulator)

    def instructions(self) -> float:
        return self.mix.total()


class RegionNode:
    """One node of the region tree.

    ``exclusive_cycles`` counts charges made while this region was innermost;
    :meth:`inclusive_cycles` adds everything charged in enclosed sub-regions.
    ``func_cycles`` records, per charged function name, the cycles attributed
    while this node was innermost -- this is what lets the handshake anatomy
    report (Table 2) list the crypto functions called inside each step.
    """

    __slots__ = ("name", "parent", "children", "exclusive_cycles",
                 "func_cycles", "entries")

    def __init__(self, name: str, parent: Optional["RegionNode"] = None):
        self.name = name
        self.parent = parent
        self.children: Dict[str, RegionNode] = {}
        self.exclusive_cycles = 0.0
        self.func_cycles: Counter = Counter()
        self.entries = 0

    def child(self, name: str) -> "RegionNode":
        node = self.children.get(name)
        if node is None:
            node = RegionNode(name, self)
            self.children[name] = node
        return node

    def inclusive_cycles(self) -> float:
        return self.exclusive_cycles + sum(
            c.inclusive_cycles() for c in self.children.values())

    def inclusive_func_cycles(self) -> Counter:
        """Per-function cycles over this node and its whole subtree."""
        agg = Counter(self.func_cycles)
        for c in self.children.values():
            agg.update(c.inclusive_func_cycles())
        return agg

    def path(self) -> str:
        parts: List[str] = []
        node: Optional[RegionNode] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def walk(self) -> Iterator["RegionNode"]:
        yield self
        for c in self.children.values():
            yield from c.walk()

    def __repr__(self) -> str:
        return (f"RegionNode({self.path()!r}, "
                f"inclusive={self.inclusive_cycles():.0f})")


#: One charge line: ``(mix, times, function, module, stall)``.
ChargeLine = Tuple[InstrMix, float, str, str, float]


class Bill:
    """A fixed run of charge lines, applied by one :meth:`Profiler.charge`.

    Each line is priced once per :class:`CpuModel` as
    ``cpu.cycles(mix, stall) * times`` -- the product ``charge`` computes --
    and its ``(mix, times)`` accumulator entry is built once and shared.
    Lines are grouped by function and by module in first-appearance order,
    and every accumulator folds its lines left to right, so the totals are
    the ones the separate ``charge`` calls would reach, ulp for ulp.
    """

    __slots__ = ("lines", "_entries", "_instr", "_fn_index", "_mod_index",
                 "_cpu", "_cycles", "_total", "_by_function", "_by_module")

    def __init__(self, lines: Iterable[ChargeLine]):
        self.lines = tuple(lines)
        fn_index: Dict[str, List[int]] = {}
        mod_index: Dict[str, List[int]] = {}
        for i, (_, _, function, module, stall) in enumerate(self.lines):
            if stall <= 0:
                raise ValueError("stall_factor must be positive")
            fn_index.setdefault(function, []).append(i)
            mod_index.setdefault(module, []).append(i)
        self._fn_index = tuple(fn_index.items())
        self._mod_index = tuple(mod_index.items())
        self._entries = tuple((m, times) for m, times, *_ in self.lines)
        self._instr = tuple(m._total * times for m, times, *_ in self.lines)
        self._cpu: Optional[CpuModel] = None

    def _price(self, cpu: CpuModel) -> None:
        """(Re)build the per-CPU cycle tables; a one-entry memo like
        :class:`InstrMix`'s, keyed on the model's identity."""
        lines, entries, instr = self.lines, self._entries, self._instr
        cycles = tuple(cpu.cycles(m, stall) * times
                       for m, times, _, _, stall in lines)
        self._cycles = cycles
        self._total = reduce(add, cycles, 0.0)
        self._by_function = tuple(
            (function, lines[idx[0]][3], tuple(cycles[i] for i in idx),
             tuple(entries[i] for i in idx), tuple(instr[i] for i in idx))
            for function, idx in self._fn_index)
        self._by_module = tuple(
            (module, tuple(cycles[i] for i in idx))
            for module, idx in self._mod_index)
        self._cpu = cpu


class Profiler:
    """Accumulates cycles, instructions and attribution for one experiment."""

    def __init__(self, cpu: CpuModel = PENTIUM4):
        self.cpu = cpu
        self.root = RegionNode("<root>")
        self._stack: List[RegionNode] = [self.root]
        self.functions: Dict[str, FunctionStats] = {}
        self.modules: Counter = Counter()
        self.global_mix = MixAccumulator()
        self._cycles = 0.0

    # -- charging -----------------------------------------------------------
    def charge(self, m: InstrMix | Bill, times: float = 1.0, *,
               function: str = "<anon>", module: str = LIBCRYPTO,
               stall: float = 1.0) -> float:
        """Charge ``times`` executions of mix ``m`` and return the cycles.

        ``m`` may instead be a :class:`Bill`: every line of it is charged,
        in order, and the bill's total cycles are returned (``times`` and
        the keywords are unused; each line carries its own).  Each
        accumulator -- region, function, module, both mixes and the clock
        -- receives the same float additions in the same order as the
        separate calls would make, and ``FunctionStats.calls`` still
        counts one call per line.

        This is the hottest non-kernel path in the model (one call per
        charged kernel invocation), so the mix's memoized per-CPU base cost
        and the accumulator appends are inlined.  The float operations and
        their order are exactly those of the out-of-line helpers, keeping
        accumulated totals bit-identical.
        """
        if m.__class__ is Bill:
            if m._cpu is not self.cpu:
                m._price(self.cpu)
            node = self._stack[-1]
            x = node.exclusive_cycles
            y = self._cycles
            for c in m._cycles:
                x += c
                y += c
            node.exclusive_cycles = x
            self._cycles = y
            fc = node.func_cycles
            functions = self.functions
            for function, module, cycles, entries, instr in m._by_function:
                fs = functions.get(function)
                if fs is None:
                    fs = functions[function] = FunctionStats(function, module)
                x = fc.get(function, 0)
                y = fs.cycles
                for c in cycles:
                    x += c
                    y += c
                fc[function] = x
                fs.cycles = y
                fs.calls += len(cycles)
                acc = fs.mix
                acc._pending += entries
                x = acc._pending_total
                for c in instr:
                    x += c
                acc._pending_total = x
            mc = self.modules
            for module, cycles in m._by_module:
                x = mc.get(module, 0)
                for c in cycles:
                    x += c
                mc[module] = x
            acc = self.global_mix
            acc._pending += m._entries
            x = acc._pending_total
            for c in m._instr:
                x += c
            acc._pending_total = x
            return m._total
        if m._cost_cpu is self.cpu:
            if stall <= 0:
                raise ValueError("stall_factor must be positive")
            cycles = m._cost_base * stall * times
        else:
            cycles = self.cpu.cycles(m, stall) * times
        node = self._stack[-1]
        node.exclusive_cycles += cycles
        fc = node.func_cycles
        fc[function] = fc.get(function, 0) + cycles
        mc = self.modules
        mc[module] = mc.get(module, 0) + cycles
        fs = self.functions.get(function)
        if fs is None:
            fs = self.functions[function] = FunctionStats(function, module)
        fs.cycles += cycles
        fs.calls += 1
        instr = m._total * times
        entry = (m, times)
        acc = fs.mix
        acc._pending.append(entry)
        acc._pending_total += instr
        acc = self.global_mix
        acc._pending.append(entry)
        acc._pending_total += instr
        self._cycles += cycles
        return cycles

    def charge_cycles(self, cycles: float, *, function: str = "<modelled>",
                      module: str = OTHER) -> float:
        """Charge raw modelled cycles (no instruction mix), e.g. kernel time."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        node = self._stack[-1]
        node.exclusive_cycles += cycles
        node.func_cycles[function] += cycles
        self.modules[module] += cycles
        fs = self.functions.get(function)
        if fs is None:
            fs = self.functions[function] = FunctionStats(function, module)
        fs.cycles += cycles
        fs.calls += 1
        self._cycles += cycles
        return cycles

    # -- regions ------------------------------------------------------------
    @contextmanager
    def region(self, name: str) -> Iterator[RegionNode]:
        """Open a nested region; charges inside attribute to it."""
        node = self._stack[-1].child(name)
        node.entries += 1
        self._stack.append(node)
        try:
            yield node
        finally:
            popped = self._stack.pop()
            assert popped is node, "region stack corrupted"

    def now(self) -> float:
        """Virtual timestamp: total cycles charged so far (the rdtsc stand-in)."""
        return self._cycles

    def seconds(self) -> float:
        """Virtual wall-clock: charged cycles over the modelled frequency.

        This is the per-worker clock of the web-server farm -- session
        expiry and batch timeouts advance with the work a worker actually
        performed, not with host time.
        """
        return self._cycles / self.cpu.frequency_hz

    # -- results ------------------------------------------------------------
    def total_cycles(self) -> float:
        return self._cycles

    def total_instructions(self) -> float:
        return self.global_mix.total()

    def overall_cpi(self) -> float:
        instr = self.total_instructions()
        if not instr:
            return 0.0
        return self._cycles / instr

    def module_breakdown(self) -> List[Tuple[str, float, float]]:
        """``(module, cycles, share)`` rows sorted by cycles, like Table 1."""
        total = self._cycles or 1.0
        rows = sorted(self.modules.items(), key=lambda kv: -kv[1])
        return [(name, cyc, cyc / total) for name, cyc in rows]

    def function_breakdown(self, top: Optional[int] = None,
                           ) -> List[Tuple[str, float, float]]:
        """``(function, self_cycles, share)`` rows, like Oprofile / Table 8."""
        total = self._cycles or 1.0
        rows = sorted(self.functions.values(), key=lambda f: -f.cycles)
        if top is not None:
            rows = rows[:top]
        return [(f.name, f.cycles, f.cycles / total) for f in rows]

    def find_region(self, path: str) -> Optional[RegionNode]:
        """Look up a region by ``a/b/c`` path; ``None`` if never entered."""
        node = self.root
        for part in path.split("/"):
            if part not in node.children:
                return None
            node = node.children[part]
        return node

    def region_cycles(self, path: str) -> float:
        node = self.find_region(path)
        return node.inclusive_cycles() if node is not None else 0.0


class DiscardProfiler(Profiler):
    """A sink for a machine whose profile is thrown away.

    The web-server simulator runs its client under one of these: the
    paper measured only the server, so the client's charges are dropped
    unpriced.  Regions still nest, so instrumented code runs unchanged.
    Reading the clock raises, since a sink that dropped every charge has
    no time to report.
    """

    def charge(self, m: InstrMix | Bill, times: float = 1.0, *,
               function: str = "<anon>", module: str = LIBCRYPTO,
               stall: float = 1.0) -> float:
        return 0.0

    def charge_cycles(self, cycles: float, *, function: str = "<modelled>",
                      module: str = OTHER) -> float:
        return 0.0

    def now(self) -> float:
        raise RuntimeError("a DiscardProfiler keeps no clock")

    seconds = total_cycles = now


# ---------------------------------------------------------------------------
# Active-profiler stack
# ---------------------------------------------------------------------------

_ACTIVE: List[Profiler] = [Profiler()]


def current() -> Profiler:
    """The profiler that instrumented code is currently charging into."""
    return _ACTIVE[-1]


@contextmanager
def activate(profiler: Profiler) -> Iterator[Profiler]:
    """Make ``profiler`` the active one for the duration of the block."""
    _ACTIVE.append(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.pop()


def reset_default(cpu: CpuModel = PENTIUM4) -> Profiler:
    """Replace the bottom-of-stack default profiler with a fresh one."""
    _ACTIVE[0] = Profiler(cpu)
    return _ACTIVE[0]


def charge(m: InstrMix, times: float = 1.0, *, function: str = "<anon>",
           module: str = LIBCRYPTO, stall: float = 1.0) -> float:
    """Charge into the active profiler (convenience wrapper)."""
    return _ACTIVE[-1].charge(m, times, function=function, module=module,
                              stall=stall)


def charge_cycles(cycles: float, *, function: str = "<modelled>",
                  module: str = OTHER) -> float:
    return _ACTIVE[-1].charge_cycles(cycles, function=function, module=module)


@contextmanager
def region(name: str) -> Iterator[RegionNode]:
    """Open a region on the active profiler (convenience wrapper)."""
    with _ACTIVE[-1].region(name) as node:
        yield node
