"""The integrated AV database system: dynamic source configuration,
device reservations, shared-device pools."""

import pytest

from repro.activities import CompositeActivity, Location
from repro.activities.library import VideoDigitizer, VideoReader, VideoWindow
from repro.avdb import AVDatabaseSystem
from repro.codecs import JPEGCodec, MPEGCodec
from repro.errors import DeviceBusyError, MediaTypeError, ResourceError
from repro.sim import Delay
from repro.storage import MagneticDisk
from repro.synth import analog_master, moving_scene, newscast_clip, tone


@pytest.fixture
def system():
    avdb = AVDatabaseSystem()
    avdb.add_storage(MagneticDisk(avdb.simulator, "disk0"))
    return avdb


class TestDynamicSourceConfiguration:
    def test_raw_value_gets_plain_reader(self, system):
        video = moving_scene(5)
        source = system.make_source(video)
        assert isinstance(source, VideoReader)
        assert source.location is Location.DATABASE

    def test_encoded_value_delivered_raw_gets_composite(self, system):
        """§4.3: 'dynamic configuration of dbSource is necessary'."""
        encoded = MPEGCodec(75).encode_value(moving_scene(5))
        source = system.make_source(encoded, deliver="raw")
        assert isinstance(source, CompositeActivity)
        assert set(a.name.split(".")[-1] for a in source.components.values()) == \
            {"read", "decode"}
        assert source.port("out").media_type.name == "video/raw"

    def test_unnamed_raw_sources_do_not_collide(self, system):
        encoded = JPEGCodec(75).encode_value(moving_scene(3))
        first = system.make_source(encoded, deliver="raw")
        second = system.make_source(encoded, deliver="raw")
        assert first.name != second.name
        assert first.name.startswith("source-jpeg-")
        assert second.name.startswith("source-jpeg-")
        assert {first.name, second.name} <= set(system.graph.activities)

    def test_named_raw_source_keeps_its_name(self, system):
        encoded = JPEGCodec(75).encode_value(moving_scene(3))
        source = system.make_source(encoded, deliver="raw", name="db-video")
        assert source.name == "db-video"
        assert {a.name for a in source.components.values()} == \
            {"db-video.read", "db-video.decode"}

    def test_encoded_value_delivered_stored_stays_compressed(self, system):
        encoded = JPEGCodec(75).encode_value(moving_scene(5))
        source = system.make_source(encoded, deliver="stored")
        assert isinstance(source, VideoReader)
        assert source.port("video_out").media_type.name == "video/jpeg"

    def test_analog_value_gets_digitizer(self, system):
        source = system.make_source(analog_master(5))
        assert isinstance(source, VideoDigitizer)

    def test_audio_and_text_sources(self, system):
        from repro.activities.library import AudioReader, TextReader
        from repro.synth import subtitle_track
        assert isinstance(system.make_source(tone(0.1)), AudioReader)
        assert isinstance(system.make_source(subtitle_track()), TextReader)

    def test_invalid_deliver_mode(self, system):
        with pytest.raises(MediaTypeError):
            system.make_source(moving_scene(2), deliver="holographic")

    def test_multisource_builds_component_per_track(self, system):
        clip = newscast_clip(video_frames=5, audio_seconds=0.2)
        multi = system.make_multisource(clip)
        assert set(multi.components) == {
            f"{multi.name}.{t}" for t in clip.track_names
        }
        assert multi.bound_value is clip


class TestDeviceReservations:
    def test_placed_value_reader_pays_device_time(self, system):
        video = moving_scene(10, 64, 48)
        system.store_value(video, "disk0")
        source = system.make_source(video)
        assert source.io_stream is not None
        assert source.io_stream.device.name == "disk0"
        window = VideoWindow(system.simulator, name="w")
        system.graph.add(window)
        system.graph.connect(source.port("video_out"), window.port("video_in"))
        system.graph.run_to_completion()
        assert len(window.presented) == 10
        assert system.placement.device("disk0").total_bits_read > 0

    def test_unplaced_value_needs_no_reservation(self, system):
        source = system.make_source(moving_scene(5))
        assert source.io_stream is None

    def test_composite_source_reservation_lands_on_reader(self, system):
        encoded = MPEGCodec(75).encode_value(moving_scene(5))
        system.store_value(encoded, "disk0")
        source = system.make_source(encoded, deliver="raw")
        reader = source._io_reader
        assert reader.io_stream is not None


class TestSharedDevicePools:
    def test_fail_fast_allocation(self, system):
        pool = system.resources.add_pool("mixer", 1)
        lease = system.resources.allocate("mixer")
        with pytest.raises(DeviceBusyError, match="no 'mixer' device"):
            system.resources.allocate("mixer")
        lease.release()
        system.resources.allocate("mixer")  # available again
        assert pool.allocation_failures == 1

    def test_queued_acquire_waits(self, system):
        pool = system.resources.add_pool("dve", 1)
        sim = system.simulator
        order = []

        def client(name, hold):
            lease = yield pool.acquire()
            order.append((name, sim.now.seconds))
            yield Delay(hold)
            lease.release()

        sim.spawn(client("a", 2.0))
        sim.spawn(client("b", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0)]
        assert pool.wait_count == 1

    def test_double_release_rejected(self, system):
        system.resources.add_pool("mixer", 1)
        lease = system.resources.allocate("mixer")
        lease.release()
        with pytest.raises(ResourceError, match="already released"):
            lease.release()

    def test_unknown_pool(self, system):
        with pytest.raises(ResourceError, match="no device pool"):
            system.resources.allocate("quantum-mixer")

    def test_duplicate_pool_rejected(self, system):
        system.resources.add_pool("mixer", 1)
        with pytest.raises(ResourceError, match="already exists"):
            system.resources.add_pool("mixer", 2)
