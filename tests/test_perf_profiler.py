"""Unit tests for the hierarchical profiler."""

import pytest

from repro import perf
from repro.perf import Profiler, mix


class TestCharging:
    def test_charge_returns_cycles(self):
        p = Profiler()
        cycles = p.charge(mix(movl=100), function="f")
        assert cycles > 0
        assert p.total_cycles() == pytest.approx(cycles)

    def test_charge_times_scales(self):
        p, q = Profiler(), Profiler()
        p.charge(mix(movl=10), times=5, function="f")
        q.charge(mix(movl=50), function="f")
        assert p.total_cycles() == pytest.approx(q.total_cycles())

    def test_function_attribution(self):
        p = Profiler()
        p.charge(mix(movl=10), function="alpha")
        p.charge(mix(movl=30), function="beta")
        rows = p.function_breakdown()
        assert rows[0][0] == "beta"
        assert rows[0][2] == pytest.approx(0.75)

    def test_function_breakdown_top_n(self):
        p = Profiler()
        for i in range(10):
            p.charge(mix(movl=i + 1), function=f"f{i}")
        assert len(p.function_breakdown(top=3)) == 3

    def test_module_attribution(self):
        p = Profiler()
        p.charge(mix(movl=10), module="libcrypto", function="a")
        p.charge(mix(movl=10), module="libssl", function="b")
        shares = dict((name, share)
                      for name, _, share in p.module_breakdown())
        assert shares["libcrypto"] == pytest.approx(0.5)
        assert shares["libssl"] == pytest.approx(0.5)

    def test_charge_cycles_modelled(self):
        p = Profiler()
        p.charge_cycles(12345.0, function="tcp", module="vmlinux")
        assert p.total_cycles() == pytest.approx(12345.0)
        assert p.total_instructions() == 0

    def test_charge_cycles_rejects_negative(self):
        with pytest.raises(ValueError):
            Profiler().charge_cycles(-1)

    def test_call_counts(self):
        p = Profiler()
        for _ in range(7):
            p.charge(mix(movl=1), function="f")
        assert p.functions["f"].calls == 7

    def test_overall_cpi(self):
        p = Profiler()
        p.charge(mix(movl=100), function="f")
        assert p.overall_cpi() == pytest.approx(
            p.total_cycles() / 100)

    def test_virtual_clock_monotonic(self):
        p = Profiler()
        t0 = p.now()
        p.charge(mix(movl=5), function="f")
        t1 = p.now()
        p.charge(mix(movl=5), function="f")
        t2 = p.now()
        assert t0 < t1 < t2
        assert t2 - t1 == pytest.approx(t1 - t0)


class TestRegions:
    def test_nested_region_paths(self):
        p = Profiler()
        with p.region("outer"):
            with p.region("inner"):
                p.charge(mix(movl=10), function="f")
        node = p.find_region("outer/inner")
        assert node is not None
        assert node.path() == "outer/inner"
        assert node.inclusive_cycles() > 0

    def test_exclusive_vs_inclusive(self):
        p = Profiler()
        with p.region("outer"):
            p.charge(mix(movl=10), function="f")
            with p.region("inner"):
                p.charge(mix(movl=30), function="f")
        outer = p.find_region("outer")
        inner = p.find_region("outer/inner")
        assert outer.exclusive_cycles == pytest.approx(
            outer.inclusive_cycles() - inner.inclusive_cycles())

    def test_region_reentry_accumulates(self):
        p = Profiler()
        for _ in range(3):
            with p.region("step"):
                p.charge(mix(movl=10), function="f")
        node = p.find_region("step")
        assert node.entries == 3
        assert node.inclusive_cycles() == pytest.approx(p.total_cycles())

    def test_region_cycles_missing_path_is_zero(self):
        assert Profiler().region_cycles("nope/nothing") == 0.0

    def test_region_func_cycles(self):
        p = Profiler()
        with p.region("step"):
            p.charge(mix(movl=10), function="rsa")
            p.charge(mix(movl=5), function="hash")
        fc = p.find_region("step").func_cycles
        assert set(fc) == {"rsa", "hash"}
        assert fc["rsa"] > fc["hash"]

    def test_inclusive_func_cycles_aggregates_subtree(self):
        p = Profiler()
        with p.region("outer"):
            p.charge(mix(movl=1), function="a")
            with p.region("inner"):
                p.charge(mix(movl=1), function="a")
        agg = p.find_region("outer").inclusive_func_cycles()
        assert agg["a"] == pytest.approx(p.total_cycles())

    def test_walk_visits_all_nodes(self):
        p = Profiler()
        with p.region("a"):
            with p.region("b"):
                pass
        with p.region("c"):
            pass
        names = {n.name for n in p.root.walk()}
        assert {"a", "b", "c"} <= names

    def test_exception_inside_region_unwinds_stack(self):
        p = Profiler()
        with pytest.raises(RuntimeError):
            with p.region("outer"):
                raise RuntimeError("boom")
        # Stack is back at root; new charges land at top level.
        p.charge(mix(movl=1), function="f")
        assert p.root.exclusive_cycles > 0


class TestActiveProfilerStack:
    def test_activate_routes_module_level_charge(self):
        p = Profiler()
        with perf.activate(p):
            perf.charge(mix(movl=10), function="f")
        assert p.total_cycles() > 0

    def test_nested_activation(self):
        outer, inner = Profiler(), Profiler()
        with perf.activate(outer):
            perf.charge(mix(movl=1), function="f")
            with perf.activate(inner):
                perf.charge(mix(movl=99), function="f")
            perf.charge(mix(movl=1), function="f")
        assert inner.functions["f"].calls == 1
        assert outer.functions["f"].calls == 2

    def test_module_level_region(self):
        p = Profiler()
        with perf.activate(p):
            with perf.region("step"):
                perf.charge(mix(movl=10), function="f")
        assert p.region_cycles("step") > 0

    def test_current_returns_active(self):
        p = Profiler()
        with perf.activate(p):
            assert perf.current() is p
        assert perf.current() is not p


class TestAccountingInvariants:
    """Structural invariants that must hold for any charge sequence."""

    from hypothesis import given, settings, strategies as st

    charge_ops = st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "deep/nested"]),
                  st.sampled_from(["f1", "f2", "f3"]),
                  st.sampled_from(["libcrypto", "libssl", "other"]),
                  st.integers(1, 500)),
        min_size=1, max_size=40)

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_module_cycles_sum_to_total(self, ops):
        p = Profiler()
        self._apply(p, ops)
        module_total = sum(c for _, c, _ in p.module_breakdown())
        assert module_total == pytest.approx(p.total_cycles())

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_function_cycles_sum_to_total(self, ops):
        p = Profiler()
        self._apply(p, ops)
        func_total = sum(f.cycles for f in p.functions.values())
        assert func_total == pytest.approx(p.total_cycles())

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_root_inclusive_equals_total(self, ops):
        p = Profiler()
        self._apply(p, ops)
        assert p.root.inclusive_cycles() == pytest.approx(p.total_cycles())

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_inclusive_is_exclusive_plus_children(self, ops):
        p = Profiler()
        self._apply(p, ops)
        for node in p.root.walk():
            expect = node.exclusive_cycles + sum(
                c.inclusive_cycles() for c in node.children.values())
            assert node.inclusive_cycles() == pytest.approx(expect)

    @given(charge_ops)
    @settings(max_examples=30, deadline=None)
    def test_shares_sum_to_one(self, ops):
        p = Profiler()
        self._apply(p, ops)
        assert sum(s for _, _, s in p.module_breakdown()) == \
            pytest.approx(1.0)

    @staticmethod
    def _apply(p, ops):
        for path, function, module, count in ops:
            parts = path.split("/")
            if len(parts) == 1:
                with p.region(parts[0]):
                    p.charge(mix(movl=count), function=function,
                             module=module)
            else:
                with p.region(parts[0]):
                    with p.region(parts[1]):
                        p.charge(mix(movl=count), function=function,
                                 module=module)


def full_state(p: Profiler) -> str:
    """Every accumulator of ``p``, floats by ``repr`` (exact), in dict order.

    Pending mix entries are read before the fold that ``snapshot`` does."""
    def acc_state(acc):
        pending = [(m.counts, repr(t)) for m, t in acc._pending]
        return (pending, repr(acc.total()),
                {k: repr(v) for k, v in acc.snapshot().counts.items()})
    return repr((
        repr(p._cycles),
        [(n.path(), repr(n.exclusive_cycles), n.entries,
          [(f, repr(c)) for f, c in n.func_cycles.items()])
         for n in p.root.walk()],
        [(name, fs.module, repr(fs.cycles), fs.calls, acc_state(fs.mix))
         for name, fs in p.functions.items()],
        [(name, repr(c)) for name, c in p.modules.items()],
        acc_state(p.global_mix),
    ))


#: Awkward counts, times and stalls, so that regrouping any float sum
#: would show in the last ulp.
_A = mix(movl=3.3, mull=1, adcl=2.1)
_B = mix(xorl=0.7, shrl=1.9)
_C = mix(call=1, ret=1, pushl=0.3)
#: ``f`` repeats inside the bill (as ``bn_mul_add_words`` does in a
#: Montgomery bill), and once under another module than its first line.
_LINES = [
    (_A, 7, "f", perf.LIBCRYPTO, 1.05),
    (_B, 0.1, "g", perf.LIBSSL, 1.0),
    (_A, 13, "f", perf.LIBCRYPTO, 1.3),
    (_C, 1.0, "h", perf.LIBCRYPTO, 1.0),
    (_B, 2.7, "f", perf.OTHER, 1.39),
]


def _drive(p: Profiler, apply) -> None:
    """Existing state, then ``apply`` at root and in nested regions."""
    p.charge(_C, 0.3, function="h", module=perf.HTTPD)
    p.charge_cycles(101.7, function="tcp", module=perf.VMLINUX)
    with p.region("outer"):
        apply(p)
        with p.region("inner"):
            apply(p)
            apply(p)
        apply(p)
    apply(p)


def _charge_lines(p: Profiler) -> None:
    for m, times, function, module, stall in _LINES:
        p.charge(m, times, function=function, module=module, stall=stall)


class TestBill:
    def test_bill_equals_its_lines_charged_one_by_one(self):
        bill = perf.Bill(_LINES)
        by_bill, by_line = Profiler(), Profiler()
        _drive(by_bill, lambda p: p.charge(bill))
        _drive(by_line, _charge_lines)
        assert full_state(by_bill) == full_state(by_line)
        # One call per line, not per bill: ``f`` has 3 lines, applied 5 times.
        assert by_bill.functions["f"].calls == 3 * 5

    def test_bill_returns_its_cycles(self):
        p = Profiler()
        assert p.charge(perf.Bill(_LINES)) == p.total_cycles() > 0

    def test_bill_reprices_per_cpu(self):
        bill = perf.Bill(_LINES)
        profs = [(Profiler(cpu), Profiler(cpu))
                 for cpu in (perf.PENTIUM4, perf.PENTIUM3)]
        for _ in range(3):                  # alternate: every call reprices
            for by_bill, by_line in profs:
                _drive(by_bill, lambda p: p.charge(bill))
                _drive(by_line, _charge_lines)
        for by_bill, by_line in profs:
            assert full_state(by_bill) == full_state(by_line)
        (p4, _), (p3, _) = profs
        assert p4.total_cycles() != p3.total_cycles()

    @pytest.mark.parametrize("stall", [0.0, -1.0])
    def test_non_positive_stall_rejected_when_built(self, stall):
        with pytest.raises(ValueError):
            perf.Bill(_LINES + [(_A, 1.0, "f", perf.LIBCRYPTO, stall)])

    def test_pickled_bill_charges_the_same(self):
        import pickle
        bill = perf.Bill(_LINES)
        Profiler().charge(bill)                     # priced before pickling
        clone = pickle.loads(pickle.dumps(bill))
        p, q = Profiler(), Profiler()
        _drive(p, lambda prof: prof.charge(bill))
        _drive(q, lambda prof: prof.charge(clone))
        assert full_state(p) == full_state(q)


class TestDiscardProfiler:
    def test_charges_are_dropped(self):
        p = perf.DiscardProfiler()
        with perf.activate(p):
            perf.charge(_A, 3, function="f")
            perf.charge(perf.Bill(_LINES))
            perf.charge_cycles(99.0, function="tcp")
            with perf.region("step"):
                perf.charge(_B, function="g")
        assert p.functions == {} and not p.modules
        assert p.global_mix.total() == 0.0

    @pytest.mark.parametrize("reader", ["now", "seconds", "total_cycles"])
    def test_clock_readers_raise(self, reader):
        with pytest.raises(RuntimeError):
            getattr(perf.DiscardProfiler(), reader)()
