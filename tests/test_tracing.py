"""Tests for trace collection and replay (the Pin substitute)."""

import io

import pytest

from repro.cache.dispatch import WalkTable
from repro.cli import main
from repro.errors import ExecutionError, TraceFormatError
from repro.execution.engine import ExecutionEngine
from repro.obs import CollectingSink, Observer
from repro.program.builder import ProgramBuilder
from repro.system.simulator import Simulator
from repro.tracing.collector import (
    collect_trace,
    replay_trace,
    replay_trace_into,
    trace_header,
)
from repro.tracing.encoder import TraceWriter, pack_bits
from repro.tracing.records import COUNTS, TraceHeader
from repro.workloads import build_benchmark

from .test_dispatch import _counted_loop_program

#: perlbmk has an indirect dispatch, so its traces record targets.
BENCH, SCALE, SEED = "perlbmk", 0.05, 3


class TestHeader:
    def test_round_trip(self):
        header = TraceHeader("bench.gcc", 1234, 42)
        decoded = TraceHeader.decode(io.BytesIO(header.encode()))
        assert decoded == header

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError, match="magic"):
            TraceHeader.decode(io.BytesIO(b"XXXX" + b"\x00" * 20))

    def test_truncated_header_rejected(self):
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceHeader.decode(io.BytesIO(b"RT"))

    def test_unicode_name_round_trips(self):
        header = TraceHeader("bênch-λ", 5, 0)
        decoded = TraceHeader.decode(io.BytesIO(header.encode()))
        assert decoded.program_name == "bênch-λ"


class TestRoundTrip:
    def test_collect_then_replay_is_identical(self, diamond_program, tmp_path):
        path = tmp_path / "diamond.rtrc"
        engine = ExecutionEngine(diamond_program, seed=7)
        live = ExecutionEngine(diamond_program, seed=7).run_to_list()
        written = collect_trace(engine, path)
        assert written == len(live)
        replayed = list(replay_trace(path, diamond_program))
        assert replayed == live

    def test_header_readable_standalone(self, simple_loop_program, tmp_path):
        path = tmp_path / "loop.rtrc"
        collect_trace(ExecutionEngine(simple_loop_program, seed=3), path)
        header = trace_header(path)
        assert header.program_name == "loop"
        assert header.seed == 3
        assert header.block_count == simple_loop_program.block_count

    def test_large_stream_crosses_chunk_boundaries(self, tmp_path):
        # Enough conditionals that the writer packs direction bits in
        # several chunks.
        pb = ProgramBuilder("big")
        main = pb.procedure("main")
        from repro.behavior.models import LoopTrip

        main.block("head", insts=1).cond("head", model=LoopTrip(300_000))
        main.block("done", insts=1).halt()
        program = pb.build()
        path = tmp_path / "big.rtrc"
        written = collect_trace(ExecutionEngine(program), path)
        assert written == 300_001
        count = sum(1 for _ in replay_trace(path, program))
        assert count == written


class TestMismatchDetection:
    def test_wrong_program_name_rejected(self, straight_line_program, simple_loop_program, tmp_path):
        path = tmp_path / "straight.rtrc"
        collect_trace(ExecutionEngine(straight_line_program), path)
        with pytest.raises(TraceFormatError, match="recorded for program"):
            list(replay_trace(path, simple_loop_program))

    def test_wrong_block_count_rejected(self, straight_line_program, tmp_path):
        path = tmp_path / "straight.rtrc"
        collect_trace(ExecutionEngine(straight_line_program), path)
        # Same name, different structure.
        pb = ProgramBuilder("straight")
        main = pb.procedure("main")
        main.block("A").halt()
        other = pb.build()
        with pytest.raises(TraceFormatError, match="blocks"):
            list(replay_trace(path, other))

    def test_trailing_garbage_detected(self, straight_line_program, tmp_path):
        path = tmp_path / "garbage.rtrc"
        collect_trace(ExecutionEngine(straight_line_program), path)
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02")
        with pytest.raises(TraceFormatError):
            list(replay_trace(path, straight_line_program))

    def test_writer_rejects_use_after_close(self, straight_line_program, tmp_path):
        steps = ExecutionEngine(straight_line_program).run_to_list()
        path = tmp_path / "closed.rtrc"
        header = TraceHeader("straight", straight_line_program.block_count, 0)
        with open(path, "wb") as fh:
            writer = TraceWriter(fh, header)
            writer.write(steps[0].block, steps[0].taken, steps[0].target)
            writer.close()
            with pytest.raises(TraceFormatError, match="closed"):
                writer.write(steps[1].block, steps[1].taken,
                             steps[1].target)


@pytest.fixture(scope="module")
def program():
    return build_benchmark(BENCH, scale=SCALE)


def assert_one_line_error(argv, capsys, message):
    """``repro`` exits 2 with one ``error:`` line naming ``message``."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: "), captured.err
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


class TestVersion2Faults:
    """A version-2 trace that does not match its program's run ends in
    a :class:`TraceFormatError`, never in a report."""

    @pytest.fixture(scope="class")
    def trace(self, program, tmp_path_factory):
        """(header bytes, counts, direction-bit bytes, target bytes)."""
        path = tmp_path_factory.mktemp("v2") / "perlbmk.rtrc"
        collect_trace(ExecutionEngine(program, seed=SEED), path)
        data = path.read_bytes()
        head = len(TraceHeader(program.name, program.block_count,
                               SEED).encode())
        counts = COUNTS.unpack_from(data, head)
        body = data[head + COUNTS.size:]
        bit_bytes = (counts[1] + 7) // 8
        assert counts[2] > 0, "no indirect targets recorded"
        return data[:head], counts, body[:bit_bytes], body[bit_bytes:]

    @staticmethod
    def assemble(parts) -> bytes:
        header, counts, bits, targets = parts
        return header + COUNTS.pack(*counts) + bits + targets

    def faulty(self, trace, fault) -> bytes:
        header, counts, bits, targets = trace
        steps, conditionals, indirects = counts
        if fault == "truncated":
            return self.assemble(trace)[:-3]
        if fault == "trailing":
            return self.assemble(trace) + b"\x00\x00"
        if fault == "indirect-off-site":
            # Block id 0 is main's entry, never a dispatch case.
            return self.assemble((header, counts, bits,
                                  (0).to_bytes(4, "little") + targets[4:]))
        if fault == "too-many-steps":
            return self.assemble((header, (steps + 1, conditionals,
                                           indirects), bits, targets))
        if fault == "unread-bits":
            return self.assemble((header, (steps, conditionals + 8,
                                           indirects), bits + b"\xff",
                                  targets))
        if fault == "missing-bits":
            return self.assemble((header, (steps, conditionals - 8,
                                           indirects), bits[:-1], targets))
        if fault == "missing-targets":
            return self.assemble((header, (steps, conditionals,
                                           indirects - 1), bits,
                                  targets[:-4]))
        if fault == "counts-over-steps":
            return self.assemble((header, (steps, conditionals, steps),
                                  bits, targets))
        raise AssertionError(fault)

    @pytest.fixture(scope="class")
    def counted(self, tmp_path_factory):
        """The counted program and its trace: (program, header bytes,
        counts, direction bits one per byte)."""
        # NET's trace over the inner loop takes laps on every replay.
        program = _counted_loop_program(body=1, trips=60, jitter=7, outer=30)
        path = tmp_path_factory.mktemp("v2") / "counted.rtrc"
        collect_trace(ExecutionEngine(program, seed=2), path)
        data = path.read_bytes()
        head = len(TraceHeader(program.name, program.block_count,
                               2).encode())
        counts = COUNTS.unpack_from(data, head)
        body = data[head + COUNTS.size:]
        bits = bytearray(body[i // 8] >> i % 8 & 1
                         for i in range(counts[1]))
        return program, data[:head], counts, bits

    #: Faults a lap meets: the replay runs past the recorded bits in the
    #: middle of a run of 1-bits at NET's counted latch.
    LAP_MESSAGES = {
        # Repacked short, zero-padded: the latch falls early.
        "cut": "steps but the program ended after",
        # The same, with the bits past the count set to 1.
        "padding-set": "the trace has no more direction bits",
        # Cut at a byte boundary: the run of 1-bits reaches the end of
        # the stream.
        "ones-to-end": "the trace has no more direction bits",
    }

    def lap_faulty(self, counted, fault) -> bytes:
        _, header, (steps, conditionals, indirects), bits = counted
        # A cut four bits into a byte, inside a run of at least eight
        # 1-bits on each side.
        cut = next(i for i in range(conditionals // 2, conditionals)
                   if i % 8 == 4 and all(bits[i - 12:i + 9]))
        if fault == "ones-to-end":
            cut -= 4
        packed = bytearray(pack_bits(bits[:cut]))
        if fault == "padding-set":
            packed[-1] |= 0xff << cut % 8 & 0xff
        return self.assemble((header, (steps, cut, indirects),
                              bytes(packed), b""))

    @pytest.mark.parametrize("fault", sorted(LAP_MESSAGES))
    def test_laps_stop_at_the_recorded_bits(self, counted, fault, tmp_path,
                                            monkeypatch):
        program = counted[0]
        path = tmp_path / "fault.rtrc"
        path.write_bytes(self.lap_faulty(counted, fault))
        message = self.LAP_MESSAGES[fault]
        lapped = []
        run_laps = WalkTable.run_laps

        def spy(table, budget):
            span = run_laps(table, budget)
            lapped.append(span[0])
            return span

        monkeypatch.setattr(WalkTable, "run_laps", spy)
        with pytest.raises(TraceFormatError, match=message):
            Simulator(program, "net").run_push(
                lambda consume: replay_trace_into(path, program, consume))
        assert sum(lapped) > 1000
        with pytest.raises(TraceFormatError, match=message):
            replay_trace_into(path, program, lambda *step: None)
        with pytest.raises(TraceFormatError, match=message):
            Simulator(program, "net").run(replay_trace(path, program))

    MESSAGES = {
        "truncated": "truncated trace body",
        "trailing": "2 trailing bytes",
        "indirect-off-site": "recorded indirect target id 0 is not a target",
        "too-many-steps": "steps but the program ended after",
        "unread-bits": r"the replay used \d+ of \d+ direction bits",
        "missing-bits": "the trace has no more direction bits",
        "missing-targets": "the trace has no more indirect targets",
        "counts-over-steps": "indirect targets in only",
    }

    @pytest.mark.parametrize("fault", sorted(MESSAGES))
    def test_every_replay_path_refuses_it(self, program, trace, fault,
                                          tmp_path):
        path = tmp_path / "fault.rtrc"
        path.write_bytes(self.faulty(trace, fault))
        message = self.MESSAGES[fault]
        with pytest.raises(TraceFormatError, match=message):
            Simulator(program, "net").run(replay_trace(path, program))
        with pytest.raises(TraceFormatError, match=message):
            Simulator(program, "net").run_push(
                lambda consume: replay_trace_into(path, program, consume))
        with pytest.raises(TraceFormatError, match=message):
            replay_trace_into(path, program, lambda *step: None)

    @pytest.mark.parametrize("fault, step", [("truncated", 0),
                                             ("indirect-off-site", None)])
    def test_failure_is_the_runs(self, program, trace, fault, step,
                                 tmp_path):
        """The fused replay fails inside the run: the error carries the
        run's context and a ``run_failed`` event is emitted."""
        path = tmp_path / "fault.rtrc"
        path.write_bytes(self.faulty(trace, fault))
        sink = CollectingSink()
        simulator = Simulator(program, "lei", observer=Observer(sink=sink))
        with pytest.raises(TraceFormatError) as exc:
            simulator.run_push(
                lambda consume: replay_trace_into(path, program, consume))
        context = exc.value.context
        assert context["benchmark"] == BENCH
        assert context["selector"] == "lei"
        if step is None:
            assert context["step"] > 0  # at the dispatch, mid-run
        else:
            assert context["step"] == step
        failed = sink.by_kind("run_failed")
        assert len(failed) == 1
        assert failed[0].step == context["step"]
        assert failed[0].get("error") == "TraceFormatError"
        assert sink.by_kind("run_finished") == []

    @pytest.mark.parametrize("fault", ["truncated", "trailing",
                                       "indirect-off-site"])
    def test_repro_replay_prints_one_error_line(self, trace, fault,
                                                tmp_path, capsys):
        path = tmp_path / "fault.rtrc"
        path.write_bytes(self.faulty(trace, fault))
        assert_one_line_error(
            ["replay", str(path), "net", "--scale", str(SCALE)], capsys,
            self.MESSAGES[fault])

    def test_repro_replay_of_another_programs_trace(self, trace, tmp_path,
                                                    capsys):
        header, counts, bits, targets = trace
        # The body of perlbmk's trace under gzip's name.
        renamed = TraceHeader("gzip", 65, SEED).encode()
        path = tmp_path / "renamed.rtrc"
        path.write_bytes(self.assemble((renamed, counts, bits, targets)))
        assert_one_line_error(
            ["replay", str(path), "net", "--scale", str(SCALE)], capsys,
            "trace expects 65 blocks but program 'gzip' has")

    def test_aborted_collection_reads_as_truncated(self, tmp_path):
        """A collection that dies mid-run writes no body: its file can
        never replay as a shorter run."""
        pb = ProgramBuilder("deep")
        main_proc = pb.procedure("main")
        main_proc.block("entry", insts=1).call("main")
        main_proc.block("after", insts=1).halt()
        deep = pb.build()
        path = tmp_path / "deep.rtrc"
        with pytest.raises(ExecutionError, match="overflow"):
            collect_trace(ExecutionEngine(deep, max_call_depth=8), path)
        with pytest.raises(TraceFormatError, match="truncated trace counts"):
            list(replay_trace(path, deep))


class TestOtherVersions:
    @pytest.mark.parametrize("version", [0, 1, 3])
    def test_every_reader_refuses_it(self, program, version, tmp_path,
                                     capsys):
        """Only version 2 is read.  A header of any other version fails
        every replay path with a :class:`TraceFormatError`, and
        ``repro replay`` with one error line."""
        path = tmp_path / "other.rtrc"
        collect_trace(ExecutionEngine(program, seed=SEED), path)
        data = bytearray(path.read_bytes())
        data[4:6] = version.to_bytes(2, "little")  # after the magic
        path.write_bytes(bytes(data))
        message = f"unsupported trace version {version}"
        with pytest.raises(TraceFormatError, match=message):
            trace_header(path)
        with pytest.raises(TraceFormatError, match=message):
            list(replay_trace(path, program))
        with pytest.raises(TraceFormatError, match=message):
            replay_trace_into(path, program, lambda *step: None)
        with pytest.raises(TraceFormatError, match=message):
            Simulator(program, "net").run_push(
                lambda consume: replay_trace_into(path, program, consume))
        assert_one_line_error(
            ["replay", str(path), "net", "--scale", str(SCALE)], capsys,
            message)
