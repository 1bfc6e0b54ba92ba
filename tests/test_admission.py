"""Admission control under overload (PR 3).

Covers the :mod:`repro.admission` controller policy (admit / degrade /
shed / queue / preempt / time out), the circuit breaker and its interop
with :mod:`repro.faults`, the resource-lifetime context managers, and
this PR's satellite regressions: the ``Session.connect`` reservation
leak, session churn hygiene, and wait-die behaviour under concurrent
metadata load.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.admission import (
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    Priority,
    QoSContract,
)
from repro.admission.scenarios import device_outage
from repro.avdb import AVDatabaseSystem
from repro.avtime import WorldTime
from repro.db import AttributeSpec, ClassDef, Q
from repro.errors import (
    AdmissionError,
    AdmissionTimeoutError,
    AVDBError,
    ChannelFaultError,
    CircuitOpenError,
    LockTimeoutError,
    PreemptedError,
    ResourceError,
)
from repro.net.channel import Channel
from repro.sim import Delay, Simulator
from repro.storage import MagneticDisk
from repro.synth import moving_scene
from repro.values import VideoValue

MBPS = 1_000_000.0


def make_controller(capacity_mbps=2.0, **kwargs):
    sim = Simulator()
    trunk = Channel(sim, capacity_mbps * MBPS, name="trunk")
    return sim, trunk, AdmissionController(sim, trunk, **kwargs)


def build_system():
    system = AVDatabaseSystem()
    video = moving_scene(15, 64, 48)
    system.add_storage(MagneticDisk(system.simulator, "disk0",
                                    bandwidth_bps=video.data_rate_bps() * 10))
    system.db.define_class(ClassDef("Clip", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("video", VideoValue),
    ]))
    system.store_value(video, "disk0")
    system.db.insert("Clip", title="shared", video=video)
    return system, video


class TestControllerPolicy:
    def test_full_admission_then_reject(self):
        sim, trunk, ctrl = make_controller(2.0)
        a = ctrl.try_admit(QoSContract(MBPS), label="a")
        b = ctrl.try_admit(QoSContract(MBPS), label="b")
        with pytest.raises(AdmissionError):
            ctrl.try_admit(QoSContract(MBPS), label="c")
        assert sim.obs.metrics.counter("admission.rejected").value == 1
        a.release()
        c = ctrl.try_admit(QoSContract(MBPS), label="c")
        assert trunk.reserved_bps == 2 * MBPS
        b.release()
        c.release()
        assert trunk.reserved_bps == 0

    def test_degraded_admission_honours_floor(self):
        sim, trunk, ctrl = make_controller(1.5)
        ctrl.try_admit(QoSContract(MBPS), label="full")
        # A floorless contract cannot be squeezed into the leftover.
        with pytest.raises(AdmissionError):
            ctrl.try_admit(QoSContract(MBPS, min_fraction=1.0), label="rigid")
        degraded = ctrl.try_admit(QoSContract(MBPS, min_fraction=0.5),
                                  label="elastic")
        assert degraded.bps == pytest.approx(0.5 * MBPS)
        assert sim.obs.metrics.counter("admission.degraded").value == 1
        # Below the floor, even an elastic contract is refused.
        with pytest.raises(AdmissionError):
            ctrl.try_admit(QoSContract(MBPS, min_fraction=0.5), label="late")

    def test_watermark_sheds_background_first(self):
        sim, trunk, ctrl = make_controller(10.0, high_watermark=0.85)
        ctrl.try_admit(QoSContract(9 * MBPS), label="bulk")
        with pytest.raises(AdmissionError, match="shedding background"):
            ctrl.try_admit(QoSContract(0.5 * MBPS, Priority.BACKGROUND),
                           label="bg")
        assert sim.obs.metrics.counter("admission.shed").value == 1
        # The same leftover still serves non-background work.
        std = ctrl.try_admit(QoSContract(2 * MBPS, Priority.STANDARD, 0.5),
                             label="std")
        assert std.bps == pytest.approx(MBPS)

    def test_interactive_preempts_background(self):
        sim, trunk, ctrl = make_controller(2.0)
        bg_a = ctrl.try_admit(QoSContract(MBPS, Priority.BACKGROUND),
                              label="bg-a")
        bg_b = ctrl.try_admit(QoSContract(MBPS, Priority.BACKGROUND),
                              label="bg-b")
        urgent = ctrl.try_admit(
            QoSContract(2 * MBPS, Priority.INTERACTIVE), label="urgent"
        )
        assert urgent.bps == 2 * MBPS
        assert bg_a.preempted and bg_b.preempted
        assert bg_a.released and bg_b.released
        assert sim.obs.metrics.counter("admission.preempted").value == 2

        outcome = {}

        def victim():
            try:
                yield from bg_a.serialize(1000)
            except PreemptedError:
                outcome["preempted"] = True

        sim.spawn(victim())
        sim.run()
        assert outcome["preempted"]

    def test_standard_work_is_never_preempted(self):
        sim, trunk, ctrl = make_controller(2.0)
        ctrl.try_admit(QoSContract(2 * MBPS, Priority.STANDARD), label="std")
        with pytest.raises(AdmissionError):
            ctrl.try_admit(QoSContract(MBPS, Priority.INTERACTIVE),
                           label="urgent")
        assert sim.obs.metrics.counter("admission.preempted").value == 0

    def test_queued_request_granted_when_capacity_frees(self):
        sim, trunk, ctrl = make_controller(2.0)
        held = ctrl.try_admit(QoSContract(2 * MBPS), label="holder")
        granted_at = {}

        def holder():
            yield Delay(0.5)
            held.release()

        def waiter():
            reservation = yield from ctrl.admit(
                QoSContract(2 * MBPS, queue_timeout_s=2.0), label="waiter"
            )
            granted_at["t"] = sim.now.seconds
            reservation.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert granted_at["t"] == pytest.approx(0.5)
        assert trunk.reserved_bps == 0
        assert sim.obs.metrics.counter("admission.queued").value == 1

    def test_queue_deadline_expires(self):
        sim, trunk, ctrl = make_controller(2.0)
        ctrl.try_admit(QoSContract(2 * MBPS), label="holder")
        outcome = {}

        def waiter():
            try:
                yield from ctrl.admit(
                    QoSContract(MBPS, queue_timeout_s=0.3), label="w"
                )
            except AdmissionTimeoutError:
                outcome["timeout_at"] = sim.now.seconds

        sim.spawn(waiter())
        sim.run()
        assert outcome["timeout_at"] == pytest.approx(0.3)
        assert ctrl.queue_depth == 0
        assert sim.obs.metrics.counter("admission.timeouts").value == 1

    def test_bounded_queue_displaces_lower_priority(self):
        sim, trunk, ctrl = make_controller(1.0, max_queue=1)
        held = ctrl.try_admit(QoSContract(MBPS), label="holder")
        outcomes = {}

        def standard():
            try:
                reservation = yield from ctrl.admit(
                    QoSContract(MBPS, Priority.STANDARD, queue_timeout_s=5.0),
                    label="std",
                )
                outcomes["std"] = "granted"
                reservation.release()
            except AdmissionError as error:
                outcomes["std"] = str(error)

        def interactive():
            yield Delay(0.1)
            reservation = yield from ctrl.admit(
                QoSContract(MBPS, Priority.INTERACTIVE, queue_timeout_s=5.0),
                label="urgent",
            )
            outcomes["urgent_at"] = sim.now.seconds
            reservation.release()

        def releaser():
            yield Delay(0.3)
            held.release()

        sim.spawn(standard())
        sim.spawn(interactive())
        sim.spawn(releaser())
        sim.run()
        assert "shed while queued" in outcomes["std"]
        assert outcomes["urgent_at"] == pytest.approx(0.3)

    def test_bounded_queue_backpressures_equal_priority(self):
        sim, trunk, ctrl = make_controller(1.0, max_queue=1)
        ctrl.try_admit(QoSContract(MBPS), label="holder")
        outcomes = {}

        def first():
            try:
                yield from ctrl.admit(
                    QoSContract(MBPS, queue_timeout_s=0.2), label="first"
                )
            except AdmissionTimeoutError:
                outcomes["first"] = "timeout"

        def second():
            yield Delay(0.05)
            try:
                yield from ctrl.admit(
                    QoSContract(MBPS, queue_timeout_s=0.2), label="second"
                )
            except AdmissionError as error:
                outcomes["second"] = str(error)

        sim.spawn(first())
        sim.spawn(second())
        sim.run()
        assert outcomes["first"] == "timeout"
        assert "backpressure" in outcomes["second"]


def _checked_victims(ctrl):
    """Check each of the controller's victim lookups against the
    reference ``max()`` scan over the live queue; return the picks."""
    lookup = ctrl._victim
    picks = []

    def checked():
        live = [e for _, e in ctrl._queue if not e.cancelled]
        expected = max(live, key=lambda e: e.sort_key, default=None)
        got = lookup()
        assert got is expected
        picks.append(got)
        return got

    ctrl._victim = checked
    return picks


_ARRIVALS = st.lists(st.tuples(
    st.integers(0, 20),                   # arrival, tenths of a second
    st.sampled_from(list(Priority)),
    st.integers(1, 6),                    # rate, tenths of the trunk
    st.sampled_from([0.0, 0.3, 1.0]),     # queue timeout
    st.integers(1, 10),                   # hold time, tenths of a second
), max_size=30)


class TestVictimLookup:
    """Queue displacement picks what ``max()`` over the live queue picks."""

    def test_newest_lowest_priority_entry_is_displaced(self):
        sim, trunk, ctrl = make_controller(1.0, max_queue=3)
        # 80% held: under the shed watermark, so background work queues.
        ctrl.try_admit(QoSContract(0.8 * MBPS), label="holder")
        displaced = _checked_victims(ctrl)
        outcomes = {}

        def waiter(label, priority, delay):
            yield Delay(delay)
            try:
                yield from ctrl.admit(QoSContract(
                    0.5 * MBPS, priority, queue_timeout_s=1.0), label)
                outcomes[label] = "granted"
            except AdmissionError as error:
                outcomes[label] = type(error).__name__

        for i, (label, priority) in enumerate([
                ("bg-old", Priority.BACKGROUND), ("std", Priority.STANDARD),
                ("bg-new", Priority.BACKGROUND), ("urgent", Priority.INTERACTIVE),
                ("late-std", Priority.STANDARD)]):
            sim.spawn(waiter(label, priority, 0.01 * i), label)
        sim.run()
        assert [e.label for e in displaced] == ["bg-new", "bg-old"]
        assert outcomes["bg-new"] == outcomes["bg-old"] == "AdmissionError"
        assert ctrl._victims == []

    def test_grant_in_the_deadline_tick_leaves_depth_at_zero(self):
        sim, trunk, ctrl = make_controller(1.0)
        holder = ctrl.try_admit(QoSContract(MBPS), label="holder")
        outcomes = []

        def waiter():
            yield Delay(0.1)
            try:
                yield from ctrl.admit(
                    QoSContract(MBPS, queue_timeout_s=0.0), "w")
            except AdmissionTimeoutError:
                outcomes.append("timeout")

        def releaser():
            yield Delay(0.1)
            holder.release()  # the pump grants "w" as its timer fires

        sim.spawn(waiter())
        sim.spawn(releaser())
        sim.run()
        assert outcomes == ["timeout"]
        assert ctrl.queue_depth == 0
        assert trunk.reserved_bps == 0

    def test_displacement_in_the_deadline_tick_leaves_depth_at_zero(self):
        sim, trunk, ctrl = make_controller(1.0, max_queue=1)
        ctrl.try_admit(QoSContract(0.8 * MBPS), label="holder")
        outcomes = {}

        def waiter(label, priority):
            try:
                yield from ctrl.admit(QoSContract(
                    0.5 * MBPS, priority, queue_timeout_s=0.0), label)
            except AdmissionError as error:
                outcomes[label] = type(error).__name__

        # "std" queues; "urgent" displaces it in the tick its deadline
        # fires, so both the shed and the timer reach it.
        sim.spawn(waiter("std", Priority.STANDARD))
        sim.spawn(waiter("urgent", Priority.INTERACTIVE))
        sim.run()
        assert outcomes == {"std": "AdmissionTimeoutError",
                            "urgent": "AdmissionTimeoutError"}
        assert ctrl.queue_depth == 0 and ctrl._victims == []

    @settings(max_examples=60, deadline=None)
    @given(max_queue=st.integers(3, 5), arrivals=_ARRIVALS)
    def test_displacement_matches_reference_max(self, max_queue, arrivals):
        sim, trunk, ctrl = make_controller(1.0, max_queue=max_queue)
        _checked_victims(ctrl)

        def client(at, priority, rate, timeout, hold):
            yield Delay(at / 10)
            try:
                reservation = yield from ctrl.admit(QoSContract(
                    rate * MBPS / 10, priority, queue_timeout_s=timeout),
                    f"c-{at}")
            except AdmissionError:
                return
            yield Delay(hold / 10)
            reservation.release()

        for arrival in arrivals:
            sim.spawn(client(*arrival))
        sim.run()
        # Compaction leaves no stale entries once the queue drains.
        assert ctrl.queue_depth == 0 and ctrl._victims == []


class TestDeviceAdmission:
    def test_fail_fast_then_queue_with_deadline(self):
        sim, trunk, ctrl = make_controller(2.0)
        system = AVDatabaseSystem(simulator=sim)
        pool = system.resources.add_pool("dve", 1)
        lease = pool.allocate()
        outcomes = {}

        def releaser():
            yield Delay(0.5)
            lease.release()

        def waiter():
            got = yield from ctrl.acquire_device(pool, Priority.STANDARD,
                                                 timeout_s=2.0)
            outcomes["granted_at"] = sim.now.seconds
            got.release()

        sim.spawn(releaser())
        sim.spawn(waiter())
        sim.run()
        assert outcomes["granted_at"] == pytest.approx(0.5)
        assert pool.available == 1

    def test_timeout_does_not_strand_the_unit(self):
        """Even when the release lands in the very tick the waiter's
        deadline fires, the pool unit comes back (the scavenger path)."""
        sim, trunk, ctrl = make_controller(2.0)
        system = AVDatabaseSystem(simulator=sim)
        pool = system.resources.add_pool("dve", 1)
        lease = pool.allocate()
        outcomes = {}

        def releaser():
            yield Delay(1.0)
            lease.release()

        def waiter():
            try:
                yield from ctrl.acquire_device(pool, Priority.STANDARD,
                                               timeout_s=1.0)
            except AdmissionTimeoutError:
                outcomes["timed_out"] = True

        sim.spawn(releaser())
        sim.spawn(waiter())
        sim.run()
        assert outcomes["timed_out"]
        assert pool.available == 1, "device lease stranded after timeout"

    def test_background_is_shed_when_pool_busy(self):
        sim, trunk, ctrl = make_controller(2.0)
        system = AVDatabaseSystem(simulator=sim)
        pool = system.resources.add_pool("dve", 1)
        pool.allocate()
        outcomes = {}

        def bg():
            try:
                yield from ctrl.acquire_device(pool, Priority.BACKGROUND,
                                               timeout_s=5.0)
            except AdmissionError as error:
                outcomes["bg"] = str(error)

        sim.spawn(bg())
        sim.run()
        assert "shedding background" in outcomes["bg"]


class TestCircuitBreaker:
    def test_state_machine_on_virtual_clock(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim, "dev", failure_threshold=2,
                                 reset_timeout_s=0.1)
        log = {}

        def failing():
            yield Delay(0.01)
            raise ChannelFaultError("injected")

        def healthy():
            yield Delay(0.01)
            return "ok"

        def driver():
            for _ in range(2):
                try:
                    yield from breaker.call(failing)
                except ChannelFaultError:
                    pass
            log["after_faults"] = breaker.state
            try:
                yield from breaker.call(healthy)
            except CircuitOpenError:
                log["fast_failed"] = True
            yield Delay(0.15)  # past the reset timeout -> half-open probe
            try:
                yield from breaker.call(failing)  # probe fails: re-open
            except ChannelFaultError:
                pass
            log["after_bad_probe"] = breaker.state
            yield Delay(0.15)
            result = yield from breaker.call(healthy)
            log["probe_result"] = result
            log["final"] = breaker.state

        sim.spawn(driver())
        sim.run()
        assert log["after_faults"] is BreakerState.OPEN
        assert log["fast_failed"]
        assert log["after_bad_probe"] is BreakerState.OPEN
        assert log["probe_result"] == "ok"
        assert log["final"] is BreakerState.CLOSED
        states = [(frm, to) for _, frm, to in breaker.transitions]
        assert states == [
            ("closed", "open"),
            ("open", "half-open"), ("half-open", "open"),
            ("open", "half-open"), ("half-open", "closed"),
        ]
        assert breaker.fast_failures == 1
        metrics = sim.obs.metrics
        assert metrics.counter("admission.breaker_transitions").value == 5
        assert metrics.gauge("admission.breaker.dev.state").value == 0.0

    def test_breaker_interops_with_fault_injection(self):
        """End-to-end against a repro.faults scheduler outage: open on
        consecutive faults, half-open probes on the virtual-time timer,
        closed after the restart — and no request left stranded."""
        facts = device_outage(seed=3, admission=True)
        path = str(facts["breaker_path"])
        assert path.startswith("open")
        assert "half-open" in path
        assert path.endswith("closed")
        assert facts["breaker_state"] == "closed"
        assert int(facts["fast_failed_frames"]) > 0
        assert int(facts["stranded_requests"]) == 0
        assert (int(facts["delivered_frames"]) + int(facts["lost_frames"])
                + int(facts["fast_failed_frames"])
                == int(facts["negotiated_frames"]))


class TestContextManagers:
    def test_reservation_releases_on_exception(self):
        sim = Simulator()
        trunk = Channel(sim, 2 * MBPS, name="trunk")
        with pytest.raises(RuntimeError):
            with trunk.reserve(MBPS, label="cm") as reservation:
                assert trunk.reserved_bps == MBPS
                raise RuntimeError("body failed")
        assert reservation.released
        assert trunk.reserved_bps == 0

    def test_device_lease_releases_on_exception(self):
        system = AVDatabaseSystem()
        pool = system.resources.add_pool("mixer", 1)
        with pytest.raises(RuntimeError):
            with pool.allocate():
                assert pool.available == 0
                raise RuntimeError("body failed")
        assert pool.available == 1
        # Exit is idempotent, but an explicit double release still errors.
        lease = pool.allocate()
        lease.release()
        with pytest.raises(ResourceError):
            lease.release()


class TestConnectReservationLeak:
    def test_failed_connect_releases_its_reservation(self):
        """Regression: ``graph.connect`` raising after ``channel.reserve``
        succeeded must not strand the bandwidth (the §4.3 statement fails
        as a unit)."""
        system, video = build_system()
        session = system.open_session("leaky")
        ref = session.select_one("Clip", Q.eq("title", "shared"))
        source = session.new_db_source((ref, "video"))
        # A video source into an audio sink: admission succeeds (the
        # boundary is crossed, bandwidth is reserved), then the
        # type-checked connection fails.
        speaker = session.new_speaker(name="wrong-sink")
        with pytest.raises(AVDBError):
            session.connect(source, speaker)
        assert session.channel.reserved_bps == 0, (
            "failed connect stranded its bandwidth reservation"
        )
        # The channel is whole: the same stream connects fine afterwards.
        window = session.new_video_window(name="right-sink")
        session.connect(source, window).start()
        system.run()
        assert len(window.presented) == 15


class TestSessionChurn:
    def test_hundred_sessions_leave_no_residue(self):
        """Open/connect/stream/close 100 sessions over one shared trunk:
        afterwards the trunk, the device pools, the storage device and
        the activity graph are exactly as they started."""
        system, video = build_system()
        pool = system.resources.add_pool("mixer", 2)
        trunk = Channel(system.simulator, 100 * MBPS, latency_s=0.001,
                        name="trunk")
        disk = system.placement.device("disk0")
        graph_baseline = len(system.graph.activities)
        connection_baseline = len(system.graph.connections)

        for i in range(100):
            session = system.open_session(f"churn-{i}", channel=trunk)
            ref = session.select_one("Clip", Q.eq("title", "shared"))
            source = session.new_db_source((ref, "video"))
            window = session.new_video_window(name=f"churn-{i}.win")
            session.new_activity(window.__class__(
                system.simulator, name=f"churn-{i}.aux"
            ), device_kind="mixer")
            session.connect(source, window).start()
            system.run()
            session.close()
            assert trunk.reserved_bps == 0
            assert not trunk._retired  # a shared trunk outlives its sessions

        assert len(system.graph.activities) == graph_baseline
        assert len(system.graph.connections) == connection_baseline
        assert pool.available == pool.count
        assert disk.available_bps == pytest.approx(disk.bandwidth_bps)

    def test_hundred_dedicated_channels_are_retired(self):
        """Open/stream/close 100 sessions, each on its own channel: close
        retires the channel, so the registry's flush hooks return to
        their baseline and no closed session's channel outlives it,
        while ``net.bits_sent`` stays exact, including bits a session
        closed mid-stream accounts after its close."""
        system, video = build_system()
        metrics = system.simulator.obs.metrics
        hook_baseline = len(metrics._flush_hooks)
        channels = []
        retired = []
        for i in range(100):
            mid_stream = i == 50
            # The mid-stream session's channel just fits the stream, so
            # its sender is always part way through serializing a frame.
            bps = video.data_rate_bps() * 1.05 if mid_stream else 100 * MBPS
            session = system.open_session(f"own-{i}", channel_bps=bps)
            ref = session.select_one("Clip", Q.eq("title", "shared"))
            source = session.new_db_source((ref, "video"))
            window = session.new_video_window(name=f"own-{i}.win")
            session.connect(source, window).start()
            if mid_stream:
                system.run(system.simulator.now + WorldTime(0.1))
                session.close()
                bits_at_close = session.channel.total_bits
                system.run()
                assert session.channel.total_bits > bits_at_close
            else:
                system.run()
                session.close()
            channels.append(session.channel)
            retired.append(weakref.ref(session.channel))

        assert len(metrics._flush_hooks) == hook_baseline
        assert metrics.get("net.bits_sent").value == sum(
            c.total_bits for c in channels)
        del channels, session, source, window
        gc.collect()
        assert [ref() for ref in retired if ref() is not None] == []


class TestWaitDieUnderLoad:
    def test_concurrent_metadata_transactions_all_commit(self):
        """24 clients hammer 3 catalog rows with read-modify-write
        transactions spanning virtual time.  Wait-die resolves every
        conflict (``LockTimeoutError.should_retry`` tells waiters from
        victims), bounded retries converge, nothing deadlocks or
        livelocks, and every client commits."""
        system = AVDatabaseSystem()
        sim = system.simulator
        system.db.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("title", str, indexed=True),
            AttributeSpec("plays", int),
        ]))
        oids = [system.db.insert("Clip", title=f"clip-{i}", plays=0)
                for i in range(3)]
        stats = {"commits": 0, "retries": 0, "gave_up": 0}
        clients = 24

        def client(index: int):
            yield Delay(0.0001 * (index % 4))
            oid = oids[index % len(oids)]
            for attempt in range(10):
                tx = system.db.begin()
                try:
                    obj = tx.read(oid)
                    yield Delay(0.002)  # the window conflicts live in
                    tx.update(oid, plays=obj.plays + 1)
                    tx.commit()
                    stats["commits"] += 1
                    return
                except LockTimeoutError as error:
                    tx.abort()
                    stats["retries"] += 1
                    backoff = 0.002 * (attempt + 1)
                    yield Delay(backoff if error.should_retry
                                else backoff * 1.5)
            stats["gave_up"] += 1

        for index in range(clients):
            sim.spawn(client(index), name=f"tx-client-{index}")
        end = sim.run()  # returning at all means no deadlock
        assert stats["commits"] == clients
        assert stats["gave_up"] == 0
        assert stats["retries"] > 0, (
            "no lock conflicts occurred; the contention this test exists "
            "for never happened"
        )
        total = sum(system.db.get(oid).plays for oid in oids)
        assert total == clients
        assert end.seconds < 5.0, "retry storm: wait-die is livelocking"


class TestSessionAdmissionIntegration:
    def test_connect_routes_through_the_controller(self):
        system, video = build_system()
        rate = video.data_rate_bps()
        trunk = Channel(system.simulator, rate * 1.5, latency_s=0.001,
                        name="trunk")
        system.enable_admission(trunk)
        ref_predicate = Q.eq("title", "shared")

        s1 = system.open_session("first", channel=trunk)
        ref = s1.select_one("Clip", ref_predicate)
        s1.connect(s1.new_db_source((ref, "video")),
                   s1.new_video_window(name="w1")).start()

        # Second stream cannot fit whole; with a degradation floor the
        # controller admits it at the leftover rate.
        s2 = system.open_session("second", channel=trunk)
        stream = s2.connect(s2.new_db_source((ref, "video")),
                            s2.new_video_window(name="w2"),
                            degrade=True, min_degraded_fraction=0.25)
        assert s2.degraded_streams == 1
        stream.start()

        # Background work past the watermark is shed outright.
        s3 = system.open_session("third", channel=trunk)
        with pytest.raises(AdmissionError, match="shedding background"):
            s3.connect(s3.new_db_source((ref, "video")),
                       s3.new_video_window(name="w3"),
                       priority=Priority.BACKGROUND, degrade=True)

        metrics = system.metrics
        assert metrics.counter("admission.admitted").value == 1
        assert metrics.counter("admission.degraded").value == 1
        assert metrics.counter("admission.shed").value == 1
        system.run()
        s1.close()
        s2.close()
        s3.close()
        assert trunk.reserved_bps == 0
