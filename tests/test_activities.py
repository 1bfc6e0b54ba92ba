"""The activity model: ports, typed connections, events, lifecycle,
graph validation — paper §4.2's contracts."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.activities import (
    ActivityGraph,
    ActivityKind,
    ActivityState,
    CompositeActivity,
    Connection,
    Direction,
    EVENT_EACH_FRAME,
    EVENT_FINISHED,
    EVENT_LAST_FRAME,
    EVENT_STARTED,
)
from repro.activities.library import (
    VideoDecoder,
    VideoMixer,
    VideoReader,
    VideoTee,
    VideoWindow,
    VideoWriter,
)
from repro.avtime import WorldTime
from repro.codecs import JPEGCodec
from repro.errors import (
    ActivityError,
    ActivityStateError,
    ConnectionError_,
    GraphError,
    PortError,
)
from repro.net.channel import Channel
from repro.sim import Simulator
from repro.values.mediatype import standard_type


class TestPortsAndConnections:
    def test_port_direction_rules(self, sim, small_video):
        reader = VideoReader(sim)
        window = VideoWindow(sim)
        out_port = reader.port("video_out")
        in_port = window.port("video_in")
        assert out_port.direction is Direction.OUT
        assert in_port.direction is Direction.IN
        with pytest.raises(ConnectionError_, match="must be an 'out' port"):
            Connection(sim, in_port, in_port)
        with pytest.raises(ConnectionError_, match="must be an 'in' port"):
            Connection(sim, out_port, out_port)

    def test_same_data_type_rule(self, sim, small_video):
        """'An in port can be connected to an out port provided they are
        of the same data type.'"""
        codec = JPEGCodec(75)
        reader = VideoReader(sim)
        reader.bind(codec.encode_value(small_video))  # port narrows to jpeg
        window = VideoWindow(sim)  # accepts raw only
        with pytest.raises(ConnectionError_, match="type mismatch"):
            Connection(sim, reader.port("video_out"), window.port("video_in"))

    def test_double_connection_rejected(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        w1, w2 = VideoWindow(sim), VideoWindow(sim)
        Connection(sim, reader.port("video_out"), w1.port("video_in"))
        with pytest.raises(ConnectionError_, match="use a tee"):
            Connection(sim, reader.port("video_out"), w2.port("video_in"))

    def test_port_narrowing(self, sim, small_video):
        reader = VideoReader(sim)
        assert reader.port("video_out").media_type.is_abstract
        reader.bind(small_video)
        assert reader.port("video_out").media_type.name == "video/raw"

    def test_narrow_incompatible_rejected(self, sim):
        reader = VideoReader(sim, media_type=standard_type("video/jpeg"))
        with pytest.raises(PortError):
            reader.port("video_out").narrow(standard_type("audio/pcm"))

    def test_unknown_port_name(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(PortError, match="no port"):
            reader.port("audio_out")

    def test_duplicate_port_name_rejected(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(PortError, match="already has a port"):
            reader.add_port("video_out", Direction.OUT, standard_type("video/raw"))

    def test_send_on_unconnected_port_fails(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        reader.start()
        with pytest.raises(PortError, match="not connected"):
            sim.run()


class TestKindClassification:
    def test_source_sink_transformer(self, sim):
        assert VideoReader(sim).kind is ActivityKind.SOURCE
        assert VideoWindow(sim).kind is ActivityKind.SINK
        codec = JPEGCodec(75)
        assert VideoDecoder(sim, codec, 16, 16, 8).kind is ActivityKind.TRANSFORMER
        assert VideoMixer(sim).kind is ActivityKind.TRANSFORMER
        assert VideoTee(sim).kind is ActivityKind.TRANSFORMER
        assert VideoWriter(sim).kind is ActivityKind.SINK


class TestLifecycle:
    def build_pipeline(self, sim, video):
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim, name="r"))
        reader.bind(video)
        window = graph.add(VideoWindow(sim, name="w"))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        return graph, reader, window

    def test_states_progress(self, sim, small_video):
        graph, reader, window = self.build_pipeline(sim, small_video)
        assert reader.state is ActivityState.CREATED
        graph.start_all()
        assert reader.state is ActivityState.RUNNING
        graph.run()
        assert reader.state is ActivityState.FINISHED
        assert window.state is ActivityState.FINISHED

    def test_double_start_rejected(self, sim, small_video):
        graph, reader, _ = self.build_pipeline(sim, small_video)
        reader.start()
        with pytest.raises(ActivityStateError, match="already running"):
            reader.start()

    def test_unbound_source_fails_at_start(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(ActivityError, match="no bound value"):
            reader.start()

    def test_bind_while_running_rejected(self, sim, small_video):
        graph, reader, _ = self.build_pipeline(sim, small_video)
        reader.start()
        with pytest.raises(ActivityStateError):
            reader.bind(small_video)

    def test_stop_mid_stream(self, sim, small_video):
        graph, reader, window = self.build_pipeline(sim, small_video)
        graph.start_all()

        def stopper():
            from repro.sim import Delay
            yield Delay(0.15)  # ~4 frames at 30 fps
            reader.stop()

        sim.spawn(stopper())
        graph.run()
        assert reader.state is ActivityState.STOPPED
        assert 2 <= len(window.presented) < 10

    def test_stop_when_not_running_rejected(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(ActivityStateError):
            reader.stop()

    def test_cue_positions_source(self, sim, small_video):
        """'Cueing a VideoSource activity to world time 0 would position it
        at the first frame' — and later cues skip frames."""
        graph, reader, window = self.build_pipeline(sim, small_video)
        reader.cue(WorldTime(0.2))  # skip first 6 frames at 30 fps
        graph.run_to_completion()
        assert len(window.presented) == small_video.num_frames - 6


class TestEvents:
    def test_each_and_last_frame(self, sim, small_video):
        """The paper's EACH-FRAME / LAST-FRAME notification example."""
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(small_video)
        window = graph.add(VideoWindow(sim))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        each, last = [], []
        reader.catch(EVENT_EACH_FRAME, lambda a, e, p: each.append(p))
        reader.catch(EVENT_LAST_FRAME, lambda a, e, p: last.append(p))
        graph.run_to_completion()
        assert each == list(range(small_video.num_frames))
        assert last == [small_video.num_frames - 1]

    def test_started_finished_events(self, sim, small_video):
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(small_video)
        window = graph.add(VideoWindow(sim))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        seen = []
        for name in (EVENT_STARTED, EVENT_FINISHED):
            reader.catch(name, lambda a, e, p: seen.append(e))
        graph.run_to_completion()
        assert seen == [EVENT_STARTED, EVENT_FINISHED]

    def test_catch_unknown_event_rejected(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(ActivityError, match="unknown event"):
            reader.catch("EACH_SAMPLE", lambda a, e, p: None)


class TestGraphValidation:
    def test_dangling_port_detected(self, sim, small_video):
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(small_video)
        with pytest.raises(GraphError, match="not connected"):
            graph.validate()

    def test_cycle_detected(self, sim):
        graph = ActivityGraph(sim)
        m1 = graph.add(VideoMixer(sim, name="m1"))
        t1 = graph.add(VideoTee(sim, name="t1"))
        graph.connect(m1.port("video_out"), t1.port("video_in"))
        graph.connect(t1.port("video_out_0"), m1.port("video_in_0"))
        graph.connect(t1.port("video_out_1"), m1.port("video_in_1"))
        with pytest.raises(GraphError, match="cycle"):
            graph.validate()

    def test_duplicate_activity_rejected(self, sim):
        graph = ActivityGraph(sim)
        reader = VideoReader(sim, name="x")
        graph.add(reader)
        with pytest.raises(GraphError, match="already in graph"):
            graph.add(reader)

    def test_foreign_port_rejected(self, sim):
        graph = ActivityGraph(sim)
        reader = VideoReader(sim)  # never added
        window = graph.add(VideoWindow(sim))
        with pytest.raises(GraphError, match="does not belong"):
            graph.connect(reader.port("video_out"), window.port("video_in"))


class TestGraphRendering:
    def test_render_ascii_shows_nodes_and_arcs(self, sim, small_video):
        """The paper's §4.2 graphical notation: nodes + directed arcs."""
        from repro.codecs import JPEGCodec
        codec = JPEGCodec(80)
        encoded = codec.encode_value(small_video)
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim, name="read"))
        reader.bind(encoded)
        decoder = graph.add(VideoDecoder(sim, codec, 32, 24, 8, name="decode"))
        window = graph.add(VideoWindow(sim, name="display"))
        graph.connect(reader.port("video_out"), decoder.port("video_in"))
        graph.connect(decoder.port("video_out"), window.port("video_in"))
        art = graph.render_ascii()
        assert "[read]  (source)" in art
        assert "[decode]  (transformer)" in art
        assert "[display]  (sink)" in art
        assert "[read] --video/jpeg--> [decode]" in art
        assert "[decode] --video/raw--> [display]" in art

    def test_render_ascii_composites_bracketed(self, sim, small_video):
        from repro.activities import CompositeActivity
        from repro.activities.ports import Connection
        from repro.codecs import JPEGCodec
        codec = JPEGCodec(80)
        encoded = codec.encode_value(small_video)
        graph = ActivityGraph(sim)
        source = CompositeActivity(sim, name="source")
        reader = VideoReader(sim, name="read")
        reader.bind(encoded)
        decoder = VideoDecoder(sim, codec, 32, 24, 8, name="decode")
        source.install(reader)
        source.install(decoder)
        Connection(sim, reader.port("video_out"), decoder.port("video_in"))
        source.export(decoder.port("video_out"), "out")
        graph.add(source)
        art = graph.render_ascii()
        assert "[source: [read] [decode]]" in art


class ScanGraph:
    """Reference membership and teardown: the whole-graph scans.

    ``connect`` looks for each port owner by flattening every member;
    ``remove`` walks every connection.  :class:`ActivityGraph` must give
    the same answers, connection order and disconnect order.
    """

    add = ActivityGraph.add

    def __init__(self, simulator, name="graph"):
        self.simulator = simulator
        self.name = name
        self.activities = {}
        self.connections = []

    def _contains(self, activity):
        return any(
            any(a is activity for a in ActivityGraph._flatten(member))
            for member in self.activities.values()
        )

    def connect(self, source, sink, capacity=8, reservation=None):
        for port in (source, sink):
            if port.owner is None or not self._contains(port.owner):
                raise GraphError(
                    f"port {port.full_name} does not belong to an activity "
                    f"in graph {self.name!r}"
                )
        connection = Connection(self.simulator, source, sink, capacity, reservation)
        self.connections.append(connection)
        return connection

    def remove(self, activity):
        if self.activities.get(activity.name) is not activity:
            raise GraphError(
                f"activity {activity.name!r} is not in graph {self.name!r}"
            )
        del self.activities[activity.name]
        members = {id(a) for a in ActivityGraph._flatten(activity)}
        survivors = []
        for connection in self.connections:
            if (id(connection.source.owner) in members
                    or id(connection.sink.owner) in members):
                connection.disconnect()
            else:
                survivors.append(connection)
        self.connections = survivors


class GraphWorld:
    """One graph driven by a scripted op sequence.

    Ops index a pool of created activities modulo its size, so any drawn
    sequence is meaningful.  Every connection carries a reservation
    whose release is logged: the log is the disconnect order.
    """

    def __init__(self, graph_cls):
        self.sim = Simulator()
        self.graph = graph_cls(self.sim)
        self.wire = Channel(self.sim, 1e12, name="wire")
        self.pool = []
        self.released = []
        self.outcomes = []

    def _leaves(self):
        return [a for a in self.pool if not isinstance(a, CompositeActivity)]

    def _composites(self):
        return [a for a in self.pool if isinstance(a, CompositeActivity)]

    def _reserve(self, label):
        reservation = self.wire.reserve(1.0, label=label)
        reservation.on_release = lambda r: self.released.append(r.label)
        return reservation

    def step(self, op):
        kind, *args = op
        leaves, composites = self._leaves(), self._composites()
        outcome = None
        try:
            if kind == "tee":
                self.pool.append(VideoTee(self.sim, name=args[0]))
            elif kind == "composite":
                self.pool.append(CompositeActivity(self.sim, name=args[0]))
            elif kind == "add" and self.pool:
                self.graph.add(self.pool[args[0] % len(self.pool)])
            elif kind == "install" and composites and self.pool:
                into = composites[args[0] % len(composites)]
                component = self.pool[args[1] % len(self.pool)]
                # A containment cycle would make flattening recurse forever.
                if not any(a is into for a in ActivityGraph._flatten(component)):
                    into.install(component)
            elif kind in ("connect", "loose") and leaves:
                source = leaves[args[0] % len(leaves)].port(f"video_out_{args[1]}")
                sink = leaves[args[2] % len(leaves)].port("video_in")
                label = f"{kind}-{len(self.outcomes)}"
                if kind == "connect":
                    self.graph.connect(source, sink,
                                       reservation=self._reserve(label))
                else:  # a connection made outside the graph
                    Connection(self.sim, source, sink,
                               reservation=self._reserve(label))
            elif kind == "remove" and self.pool:
                self.graph.remove(self.pool[args[0] % len(self.pool)])
        except (GraphError, ConnectionError_, ActivityError) as exc:
            outcome = (type(exc).__name__, str(exc))
        self.outcomes.append(outcome)

    def wiring(self):
        return [(c.source.full_name, c.sink.full_name)
                for c in self.graph.connections]


_INDEX = st.integers(0, 7)
GRAPH_OPS = st.one_of(
    st.tuples(st.just("tee"), st.sampled_from("abcd")),
    st.tuples(st.just("composite"), st.sampled_from("abcd")),
    st.tuples(st.just("add"), _INDEX),
    st.tuples(st.just("install"), _INDEX, _INDEX),
    st.tuples(st.just("connect"), _INDEX, st.integers(0, 1), _INDEX),
    st.tuples(st.just("loose"), _INDEX, st.integers(0, 1), _INDEX),
    st.tuples(st.just("remove"), _INDEX),
)

# Leaves by index: 0 = top-level "a", 1 = top-level "b", 2 = "n" nested
# in the top-level composite "c", 3 = "x" outside the graph, 4 = an
# impostor named "a".  Then a connection made outside the graph from a
# member, and removals.
MEMBERSHIP_SCRIPT = [
    ("tee", "a"), ("tee", "b"), ("tee", "n"), ("tee", "x"), ("tee", "a"),
    ("composite", "c"), ("add", 0), ("add", 1), ("add", 5),
    ("install", 0, 2),
    ("connect", 0, 0, 1),   # top-level -> top-level
    ("connect", 2, 0, 0),   # nested -> top-level
    ("connect", 0, 1, 2),   # top-level -> nested
    ("connect", 3, 0, 3),   # outside the graph
    ("connect", 4, 0, 1),   # same-named impostor
    ("connect", 1, 0, 4),   # impostor as sink
    ("loose", 1, 1, 3),     # b -> x, outside the graph
    ("remove", 4),          # the impostor is not a member
    ("remove", 5),          # the composite takes its nested links
    ("remove", 0),
    ("remove", 1),          # leaves b's outside connection alone
]


def _run_both(ops):
    fast, scan = GraphWorld(ActivityGraph), GraphWorld(ScanGraph)
    for op in ops:
        fast.step(op)
        scan.step(op)
        assert fast.outcomes == scan.outcomes
        assert fast.wiring() == scan.wiring()
        assert fast.released == scan.released
    return fast


class TestGraphMembershipEquivalence:
    """Identity membership on connect and port-indexed teardown on remove
    answer exactly as the whole-graph scans did."""

    def test_membership_cases(self):
        world = _run_both(MEMBERSHIP_SCRIPT)
        outcomes = world.outcomes
        assert outcomes[10:13] == [None, None, None]
        for step in (13, 14, 15):
            assert outcomes[step][0] == "GraphError"
            assert "does not belong" in outcomes[step][1]
        assert outcomes[16] is None
        assert outcomes[17][0] == "GraphError"
        assert outcomes[18:] == [None, None, None]
        # Removing "c" drops both links of its nested "n", in the order
        # they were made; b's connection outside the graph survives b.
        assert world.released == ["connect-11", "connect-12", "connect-10"]
        assert world.graph.connections == []
        assert world.pool[1].port("video_out_1").connected

    @settings(max_examples=200, deadline=None)
    @example(ops=MEMBERSHIP_SCRIPT)
    @given(ops=st.lists(GRAPH_OPS, max_size=40))
    def test_random_sequences_match_the_scans(self, ops):
        _run_both(ops)
