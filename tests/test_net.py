"""Network channels: admission control, transfer timing, accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AdmissionError
from repro.net import Channel
from repro.sim import Simulator


class TestAdmission:
    def test_reservations_bounded_by_capacity(self, sim):
        channel = Channel(sim, capacity_bps=10_000_000)
        channel.reserve(4_000_000, "a")
        channel.reserve(4_000_000, "b")
        with pytest.raises(AdmissionError, match="cannot reserve"):
            channel.reserve(4_000_000, "c")
        assert channel.admission_failures == 1
        assert channel.available_bps == pytest.approx(2_000_000)

    def test_release_returns_bandwidth(self, sim):
        channel = Channel(sim, capacity_bps=1_000_000)
        reservation = channel.reserve(800_000)
        reservation.release()
        assert channel.available_bps == pytest.approx(1_000_000)
        channel.reserve(900_000)  # fits after release

    def test_double_release_idempotent(self, sim):
        channel = Channel(sim, capacity_bps=1_000)
        reservation = channel.reserve(500)
        reservation.release()
        reservation.release()
        assert channel.available_bps == 1_000

    def test_invalid_reservations(self, sim):
        channel = Channel(sim, capacity_bps=1_000)
        with pytest.raises(AdmissionError):
            channel.reserve(0)
        with pytest.raises(AdmissionError):
            channel.reserve(-5)

    def test_reserved_sum_is_not_a_running_total(self, sim):
        channel = Channel(sim, capacity_bps=1.0)
        first = channel.reserve(0.1)
        channel.reserve(0.2)
        first.release()
        # A running total would read (0.1 + 0.2) - 0.1 = 0.20000000000000004.
        assert channel.reserved_bps == 0.2
        channel.reserve(0.1)
        channel.reserve(0.3)
        # sum() is compensated since Python 3.12: it gives 0.6 there,
        # while (0.2 + 0.1) + 0.3 is 0.6000000000000001 on every version.
        assert channel.reserved_bps == sum([0.2, 0.1, 0.3])

    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("reserve"),
                  st.floats(0.001, 50.0, allow_nan=False)),
        st.tuples(st.just("release"), st.integers(0, 30)),
    ), max_size=60))
    def test_reserved_sum_equals_fresh_sum(self, ops):
        channel = Channel(Simulator(), capacity_bps=1000.0)
        held = []
        for op, arg in ops:
            if op == "reserve":
                try:
                    held.append(channel.reserve(arg))
                except AdmissionError:
                    pass
            elif held:
                held.pop(arg % len(held)).release()
            assert channel.reserved_bps == sum(
                r.bps for r in channel._reservations.values())

    def test_invalid_channel_parameters(self, sim):
        with pytest.raises(AdmissionError):
            Channel(sim, capacity_bps=0)
        with pytest.raises(AdmissionError):
            Channel(sim, capacity_bps=1000, latency_s=-1)


class TestTransfers:
    def test_transfer_time_is_latency_plus_serialization(self, sim):
        channel = Channel(sim, capacity_bps=1_000_000, latency_s=0.1)
        reservation = channel.reserve(500_000)

        def sender():
            yield from reservation.transmit(1_000_000)  # 2 s at 500 kb/s

        proc = sim.spawn(sender())
        sim.run_until_complete(proc)
        assert sim.now.seconds == pytest.approx(2.1)

    def test_transmit_after_release_fails(self, sim):
        channel = Channel(sim, capacity_bps=1_000)
        reservation = channel.reserve(500)
        reservation.release()

        def sender():
            yield from reservation.transmit(100)

        sim.spawn(sender())
        with pytest.raises(AdmissionError, match="released"):
            sim.run()

    def test_traffic_accounting(self, sim):
        channel = Channel(sim, capacity_bps=1_000_000)
        a = channel.reserve(100_000, "a")
        b = channel.reserve(100_000, "b")

        def sender(reservation, bits):
            yield from reservation.transmit(bits)

        sim.spawn(sender(a, 5_000))
        sim.spawn(sender(b, 3_000))
        sim.run()
        assert channel.total_bits == 8_000
        assert channel.total_bytes == 1_000
        assert a.bits_transmitted == 5_000

    def test_mean_throughput(self, sim):
        channel = Channel(sim, capacity_bps=1_000_000)
        reservation = channel.reserve(100_000)

        def sender():
            yield from reservation.transmit(50_000)  # takes 0.5 s

        proc = sim.spawn(sender())
        sim.run_until_complete(proc)
        assert channel.mean_throughput_bps() == pytest.approx(100_000)

    def test_concurrent_streams_do_not_serialize(self, sim):
        """Reserved slices transfer independently (ATM-style isolation)."""
        channel = Channel(sim, capacity_bps=2_000_000)
        a = channel.reserve(1_000_000)
        b = channel.reserve(1_000_000)
        done = []

        def sender(name, reservation):
            yield from reservation.transmit(1_000_000)  # 1 s each
            done.append((name, sim.now.seconds))

        sim.spawn(sender("a", a))
        sim.spawn(sender("b", b))
        sim.run()
        assert [t for _, t in done] == [pytest.approx(1.0), pytest.approx(1.0)]
