"""Tests for the client wire protocol."""

import io
import json
import struct

import numpy as np
import pytest

from repro.aggregation.functions import SumAggregation
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.frontend.adr import ADR
from repro.frontend import protocol
from repro.frontend.protocol import (
    ProtocolError,
    encode_frame,
    query_from_dict,
    query_to_dict,
    read_frame,
    result_from_dict,
    result_to_dict,
    result_to_message,
    write_frame,
)
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping, IdentityMapping
from repro.util.geometry import Rect
from repro.util.units import MB


def over_the_wire(message):
    """*message* after one write_frame/read_frame round trip."""
    buf = io.BytesIO()
    write_frame(buf, message)
    buf.seek(0)
    return read_frame(buf)


def make_query():
    in_space = AttributeSpace.regular("s", ("x", "y", "t"), (0, 0, 0), (10, 10, 5))
    out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
    grid = OutputGrid(out_space, (8, 8), (4, 4), cell_value_bytes=16)
    mapping = GridMapping(in_space, out_space, (8, 8), dim_select=(0, 1),
                          footprint=(0.01, 0.02))
    return RangeQuery("sensors", Rect((1, 2, 0), (9, 8, 5)), mapping, grid,
                      aggregation="mean", strategy="SRA", value_components=3)


class TestQueryRoundTrip:
    def test_json_roundtrip_preserves_everything(self):
        q = make_query()
        payload = json.loads(json.dumps(query_to_dict(q)))
        back = query_from_dict(payload)
        assert back.dataset == q.dataset
        assert back.region == q.region
        assert back.strategy == "SRA"
        assert back.aggregation == "mean"
        assert back.value_components == 3
        assert back.grid.grid_shape == q.grid.grid_shape
        assert back.grid.chunk_shape == q.grid.chunk_shape
        assert back.grid.cell_value_bytes == 16
        assert back.mapping.dim_select == q.mapping.dim_select
        assert back.mapping.footprint == q.mapping.footprint
        assert back.mapping.input_space == q.mapping.input_space

    def test_spec_instance_encoded_by_name(self):
        q = make_query()
        q.aggregation = SumAggregation(3)
        payload = query_to_dict(q)
        assert payload["aggregation"] == "sum"

    def test_custom_spec_rejected(self):
        class Weird(SumAggregation):
            pass

        q = make_query()
        q.aggregation = Weird(1)
        with pytest.raises(ProtocolError, match="not wire-serializable"):
            query_to_dict(q)

    def test_non_grid_mapping_rejected(self):
        q = make_query()
        q.mapping = IdentityMapping(q.mapping.output_space)
        with pytest.raises(ProtocolError, match="GridMapping"):
            query_to_dict(q)

    def test_unknown_aggregation_rejected(self):
        q = make_query()
        q.aggregation = "median"
        with pytest.raises(ProtocolError):
            query_to_dict(q)

    def test_bad_version(self):
        payload = query_to_dict(make_query())
        payload["version"] = 99
        with pytest.raises(ProtocolError, match="version"):
            query_from_dict(payload)

    def test_missing_field(self):
        payload = query_to_dict(make_query())
        del payload["grid"]
        with pytest.raises(ProtocolError, match="grid"):
            query_from_dict(payload)


class TestDegradedResultsOnTheWire:
    """on_error / chunk_errors / completeness cross the wire, and only
    when non-default -- clean payloads stay byte-identical to old ones."""

    @staticmethod
    def make_result(**kw):
        from repro.runtime.engine import QueryResult

        return QueryResult(
            strategy="FRA", output_ids=np.array([0]),
            chunk_values=[np.array([[1.0]])],
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0,
            n_aggregations=1, **kw,
        )

    def test_degraded_result_roundtrip(self):
        res = self.make_result(
            chunk_errors={7: "CorruptChunkError: CRC mismatch"},
            completeness=0.875,
        )
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert back.chunk_errors == {7: "CorruptChunkError: CRC mismatch"}
        assert back.completeness == 0.875

    def test_chunk_error_keys_restored_to_ints(self):
        """JSON forces object keys to strings; decoding restores ints."""
        res = self.make_result(chunk_errors={3: "OSError: gone"},
                               completeness=0.9)
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert list(back.chunk_errors) == [3]

    def test_clean_result_payload_has_no_robustness_keys(self):
        payload = result_to_dict(self.make_result())
        assert "chunk_errors" not in payload
        assert "completeness" not in payload

    def test_old_result_payload_decodes_clean(self):
        back = result_from_dict(json.loads(json.dumps(
            result_to_dict(self.make_result()))))
        assert back.chunk_errors == {} and back.completeness == 1.0

    def test_query_on_error_roundtrip(self):
        q = make_query()
        q.on_error = "degrade"
        payload = json.loads(json.dumps(query_to_dict(q)))
        assert payload["on_error"] == "degrade"
        assert query_from_dict(payload).on_error == "degrade"

    def test_default_query_payload_has_no_on_error_key(self):
        payload = query_to_dict(make_query())
        assert "on_error" not in payload
        assert query_from_dict(payload).on_error == "raise"

    def test_unknown_on_error_rejected_at_construction(self):
        import dataclasses

        with pytest.raises(ValueError, match="on_error"):
            dataclasses.replace(make_query(), on_error="shrug")


class TestResultRoundTrip:
    def test_end_to_end_through_the_wire(self, rng):
        """A full client interaction: encode query, decode server-side,
        execute, encode result, decode client-side."""
        adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
        in_space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
        coords = rng.uniform(0, 10, size=(200, 2))
        values = rng.integers(1, 20, size=200).astype(float)
        adr.load("sensors", in_space, hilbert_partition(coords, values, 20))
        out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
        grid = OutputGrid(out_space, (6, 6), (3, 3))
        mapping = GridMapping(in_space, out_space, (6, 6))
        q = RangeQuery("sensors", Rect((0, 0), (10, 10)), mapping, grid,
                       aggregation="mean", strategy="FRA")

        server_query = query_from_dict(over_the_wire(query_to_dict(q)))
        result = adr.execute(server_query)
        client_result = result_from_dict(over_the_wire(result_to_message(result)))

        assert client_result.output_ids.tolist() == result.output_ids.tolist()
        for a, b in zip(client_result.chunk_values, result.chunk_values):
            assert a.tobytes() == b.tobytes()
        assert client_result.n_reads == result.n_reads

    @staticmethod
    def _values_result(chunk_values):
        from repro.runtime.engine import QueryResult

        return QueryResult(
            strategy="FRA",
            output_ids=np.arange(len(chunk_values)),
            chunk_values=chunk_values,
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0, n_aggregations=1,
        )

    def test_nan_encoding(self):
        """NaN and ±inf cross the wire as JSON tokens, bit-identically:
        mixed values, an all-NaN chunk, and a ``best`` partial
        accumulator (unfilled cells hold -inf scores)."""
        from repro.aggregation.functions import BestValueComposite
        from repro.shard.partial import PartialAggregationSpec

        spec = PartialAggregationSpec(BestValueComposite(3))
        best = spec.initialize(6)
        spec.aggregate(
            best,
            np.array([0, 0, 2, 5]),
            np.array([[0.5, 1.0, np.nan], [0.7, 2.0, 3.0],
                      [np.inf, -1.0, 0.25], [-2.0, np.nan, np.nan]]),
        )
        best = spec.output(best)
        assert np.isneginf(best[:, 0]).sum() == 3
        chunks = [
            np.array([[1.0, np.nan], [np.inf, -np.inf], [-0.0, 1e-300]]),
            np.full((4, 2), np.nan),
            best,
        ]
        text = json.dumps(result_to_dict(self._values_result(chunks)))
        assert "NaN" in text and "-Infinity" in text
        back = result_from_dict(json.loads(text))
        for got, want in zip(back.chunk_values, chunks):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, None]], [["nan", 1.0]], [[1.0], [1.0, 2.0]]],
        ids=["null", "string", "ragged"],
    )
    def test_non_numeric_values_rejected(self, rows):
        payload = json.loads(json.dumps(
            result_to_dict(self._values_result([np.zeros((1, 2))]))))
        payload["chunk_values"] = [rows]
        with pytest.raises(ProtocolError):
            result_from_dict(payload)

    def test_result_bad_version(self):
        with pytest.raises(ProtocolError):
            result_from_dict({"version": 0})

    def test_phase_times_and_cache_stats_roundtrip(self):
        from repro.runtime.engine import QueryResult

        res = QueryResult(
            strategy="FRA",
            output_ids=np.array([0]),
            chunk_values=[np.array([[2.0]])],
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0, n_aggregations=1,
            phase_times={"initialize": 0.25, "reduce": 1.5,
                         "combine": 0.0, "output": 0.125},
            cache_stats={"routing_hits": 3, "routing_misses": 1,
                         "pool_reuses": 2},
        )
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert back.phase_times == res.phase_times
        assert back.cache_stats == res.cache_stats

    def test_result_without_timings_stays_empty(self):
        """Old payloads (and counters-only servers) decode to empty
        dicts, not missing attributes."""
        from repro.runtime.engine import QueryResult

        res = QueryResult(
            strategy="FRA",
            output_ids=np.array([0]),
            chunk_values=[np.array([[2.0]])],
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0, n_aggregations=1,
        )
        payload = json.loads(json.dumps(result_to_dict(res)))
        assert "phase_times" not in payload and "cache_stats" not in payload
        back = result_from_dict(payload)
        assert back.phase_times == {} and back.cache_stats == {}


class TestStrategyChoiceOnTheWire:
    def _result(self, **kw):
        from repro.runtime.engine import QueryResult

        return QueryResult(
            strategy="SRA",
            output_ids=np.array([0]),
            chunk_values=[np.array([[2.0]])],
            n_tiles=1, n_reads=1, bytes_read=10, n_combines=0,
            n_aggregations=1, **kw,
        )

    def test_selection_roundtrip(self):
        res = self._result(
            selected_strategy="SRA",
            strategy_ranking={"SRA": 1.25, "FRA": 2.5, "DA": 4.0,
                              "HYBRID": 4.5},
        )
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert back.selected_strategy == "SRA"
        assert back.strategy_ranking == res.strategy_ranking
        # rank order survives the wire (dict order is part of the payload)
        assert list(back.strategy_ranking) == ["SRA", "FRA", "DA", "HYBRID"]

    def test_fixed_strategy_payload_omits_selection(self):
        """Explicit-strategy results carry no selection fields -- the
        payload stays byte-compatible with pre-auto servers."""
        payload = json.loads(json.dumps(result_to_dict(self._result())))
        assert "selected_strategy" not in payload
        assert "strategy_ranking" not in payload
        back = result_from_dict(payload)
        assert back.selected_strategy == ""
        assert back.strategy_ranking == {}

    def test_auto_query_roundtrip(self):
        q = make_query()
        q.strategy = "AUTO"
        back = query_from_dict(json.loads(json.dumps(query_to_dict(q))))
        assert back.strategy == "AUTO"

    def test_missing_strategy_defaults_to_auto(self):
        """A client that omits strategy gets automatic selection."""
        payload = json.loads(json.dumps(query_to_dict(make_query())))
        del payload["strategy"]
        assert query_from_dict(payload).strategy == "AUTO"

    def test_auto_end_to_end_on_the_wire(self, rng):
        adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
        in_space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
        coords = rng.uniform(0, 10, size=(200, 2))
        values = rng.integers(1, 20, size=200).astype(float)
        adr.load("sensors", in_space, hilbert_partition(coords, values, 20))
        out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
        grid = OutputGrid(out_space, (6, 6), (3, 3))
        mapping = GridMapping(in_space, out_space, (6, 6))
        q = RangeQuery("sensors", Rect((0, 0), (10, 10)), mapping, grid,
                       aggregation="mean", strategy="AUTO")

        server_query = query_from_dict(over_the_wire(query_to_dict(q)))
        result = adr.execute(server_query)
        back = result_from_dict(over_the_wire(result_to_message(result)))
        assert back.selected_strategy == result.strategy
        assert back.strategy_ranking == result.strategy_ranking
        assert set(back.strategy_ranking) == {"FRA", "SRA", "DA", "HYBRID"}


class TestSharedCountersOnTheWire:
    def _result(self, **kw):
        from repro.runtime.engine import QueryResult

        return QueryResult(
            strategy="FRA",
            output_ids=np.array([0]),
            chunk_values=[np.array([[2.0]])],
            n_tiles=1, n_reads=4, bytes_read=40, n_combines=0,
            n_aggregations=4, **kw,
        )

    def test_shared_counters_roundtrip(self):
        res = self._result(shared_reads=3, shared_bytes=1536)
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert back.shared_reads == 3
        assert back.shared_bytes == 1536

    def test_unshared_result_payload_has_no_shared_keys(self):
        """Back-compat: isolated executions encode byte-identically to
        pre-sharing payloads."""
        payload = result_to_dict(self._result())
        assert "shared_reads" not in payload
        assert "shared_bytes" not in payload

    def test_old_payload_decodes_with_zero_shared(self):
        payload = json.loads(json.dumps(result_to_dict(self._result())))
        back = result_from_dict(payload)
        assert back.shared_reads == 0 and back.shared_bytes == 0


class TestErrorEncoding:
    def test_exception_renders_as_typename_message(self):
        from repro.frontend.protocol import error_to_dict

        payload = error_to_dict("bad_request", KeyError("absent"))
        assert payload == {
            "ok": False,
            "code": "bad_request",
            "error": "KeyError: 'absent'",
        }

    def test_plain_text_error(self):
        from repro.frontend.protocol import error_to_dict

        payload = error_to_dict("overloaded", "pending queue full")
        assert payload["code"] == "overloaded"
        assert payload["error"] == "pending queue full"

    def test_unknown_code_rejected(self):
        from repro.frontend.protocol import ERROR_CODES, error_to_dict

        assert set(ERROR_CODES) == {
            "bad_request", "overloaded", "internal",
            "shard_unavailable", "deadline_exceeded",
        }
        with pytest.raises(ValueError, match="unknown error code"):
            error_to_dict("teapot", "x")


class TestFraming:
    """Edge cases of the length-prefixed frame codec: every corruption
    mode must surface as a loud ProtocolError, never a hang, a short
    result, or a bare struct/json error."""

    def roundtrip(self, message):
        return over_the_wire(message)

    def test_roundtrip(self):
        message = {"op": "query", "nested": {"xs": [1, 2.5, None, "s"]}}
        assert self.roundtrip(message) == message

    def test_clean_eof_is_none(self):
        import io

        from repro.frontend.protocol import read_frame

        assert read_frame(io.BytesIO(b"")) is None

    def test_truncated_header(self):
        import io

        from repro.frontend.protocol import read_frame

        with pytest.raises(ProtocolError, match="truncated frame header"):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_oversized_declared_length(self):
        import io
        import struct

        from repro.frontend.protocol import MAX_FRAME_BYTES, read_frame

        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
            read_frame(io.BytesIO(header))

    def test_torn_payload(self):
        import io
        import struct

        from repro.frontend.protocol import read_frame

        data = struct.pack(">I", 10) + b"{}"
        with pytest.raises(ProtocolError, match="torn frame: got 2 of 10"):
            read_frame(io.BytesIO(data))

    def test_non_json_payload(self):
        import io
        import struct

        from repro.frontend.protocol import read_frame

        data = struct.pack(">I", 3) + b"\xff\xfe\xfd"
        with pytest.raises(ProtocolError, match="bad frame payload"):
            read_frame(io.BytesIO(data))

    def test_oversized_outgoing_payload_refused(self):
        import io

        from repro.frontend.protocol import MAX_FRAME_BYTES, write_frame

        big = {"blob": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
            write_frame(io.BytesIO(), big)

    # -- binary segments ---------------------------------------------

    @staticmethod
    def odd_floats():
        """Values JSON would not keep bit for bit: a NaN with a payload,
        ±inf, -0.0, an empty (0, k) block and a ``best`` partial
        accumulator (unfilled cells hold -inf scores)."""
        from repro.aggregation.functions import BestValueComposite
        from repro.shard.partial import PartialAggregationSpec

        nan_payload = np.frombuffer(
            struct.pack("<Q", 0x7FF8_0000_0000_0123), dtype="<f8"
        )[0]
        spec = PartialAggregationSpec(BestValueComposite(3))
        best = spec.initialize(6)
        spec.aggregate(
            best,
            np.array([0, 0, 2, 5]),
            np.array([[0.5, 1.0, np.nan], [0.7, 2.0, 3.0],
                      [np.inf, -1.0, 0.25], [-2.0, np.nan, np.nan]]),
        )
        return [
            np.array([[nan_payload, np.inf], [-np.inf, -0.0], [0.0, 5e-324]]),
            np.empty((0, 3)),
            spec.output(best),
        ]

    @staticmethod
    def segmented(values):
        """A frame's bytes with tampering room: (header, json, segments)."""
        frame = encode_frame({"values": values})
        (length,) = struct.unpack(">I", frame[:4])
        return frame[:4], frame[4:4 + length], bytearray(frame[4 + length:])

    def test_arrays_roundtrip_bit_identical(self):
        values = self.odd_floats()
        ids = np.array([3, -1, 2**62], dtype=np.int64)
        back = self.roundtrip({"values": values, "ids": ids, "n": 1})
        assert back["n"] == 1
        assert back["ids"].dtype == np.int64
        assert back["ids"].tolist() == ids.tolist()
        for got, want in zip(back["values"], values):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_result_roundtrip_bit_identical(self):
        values = self.odd_floats()
        result = TestResultRoundTrip._values_result(values)
        back = result_from_dict(self.roundtrip(result_to_message(result)))
        assert back.output_ids.tolist() == [0, 1, 2]
        for got, want in zip(back.chunk_values, values):
            assert got.tobytes() == want.tobytes()

    def test_decoded_arrays_are_writable(self):
        back = self.roundtrip({"values": [np.arange(6.0).reshape(2, 3)]})
        arr = back["values"][0]
        assert arr.flags.writeable
        arr[0, 0] = 42.0
        assert arr[0, 0] == 42.0

    def test_array_free_frame_is_plain_json(self):
        message = {"op": "query", "query": {"xs": [1, 2.5]}}
        data = json.dumps(message).encode("utf-8")
        assert encode_frame(message) == struct.pack(">I", len(data)) + data

    def test_non_contiguous_and_float32_arrays_widen(self):
        arr = np.arange(12.0, dtype=np.float32).reshape(3, 4)[:, ::2]
        back = self.roundtrip({"a": arr})["a"]
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr)

    def test_unsupported_outgoing_dtype_refused(self):
        with pytest.raises(ProtocolError, match="do not travel"):
            encode_frame({"a": np.array([True, False])})

    def test_segment_bit_flip_fails_crc(self):
        header, text, segments = self.segmented(self.odd_floats())
        segments[len(segments) // 2] ^= 0x01
        with pytest.raises(ProtocolError, match="CRC32"):
            read_frame(io.BytesIO(header + text + segments))

    def test_torn_segment(self):
        header, text, segments = self.segmented(self.odd_floats())
        with pytest.raises(ProtocolError, match="torn frame: got 10 of"):
            read_frame(io.BytesIO(header + text + segments[:10]))

    @staticmethod
    def descriptor_frame(**fields):
        desc = {"__ndarray__": "<f8", "shape": [2], "nbytes": 16, "crc32": 0}
        desc.update(fields)
        data = json.dumps({"a": desc}).encode("utf-8")
        return struct.pack(">I", len(data)) + data

    def test_declared_segment_total_refused_before_allocation(self):
        """A descriptor declaring 2**62 bytes must be refused by the
        size check: allocating it would raise MemoryError instead, and
        no segment byte may be read."""
        class Untouchable(io.BytesIO):
            def readinto(self, b):
                raise AssertionError("segment bytes read past the size check")

        frame = self.descriptor_frame(shape=[2**59], nbytes=2**62)
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
            read_frame(Untouchable(frame))

    def test_segment_total_counts_toward_frame_limit(self, monkeypatch):
        frame = self.descriptor_frame()
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", len(frame) - 4 + 15)
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
            read_frame(io.BytesIO(frame + bytes(16)))

    @pytest.mark.parametrize(
        "fields",
        [{"__ndarray__": "<f4", "nbytes": 8}, {"__ndarray__": ">f8"},
         {"__ndarray__": "|b1", "nbytes": 2}, {"__ndarray__": "nope"}],
        ids=["float32", "big-endian", "bool", "garbage"],
    )
    def test_unknown_dtype_refused(self, fields):
        with pytest.raises(ProtocolError, match="dtype"):
            read_frame(io.BytesIO(self.descriptor_frame(**fields) + bytes(16)))

    @pytest.mark.parametrize(
        "fields",
        [{"nbytes": 24}, {"shape": [3]}, {"shape": [-2, -1]}],
        ids=["nbytes", "shape", "negative"],
    )
    def test_shape_nbytes_mismatch_refused(self, fields):
        with pytest.raises(ProtocolError, match="does not match"):
            read_frame(io.BytesIO(self.descriptor_frame(**fields) + bytes(24)))

    def test_malformed_descriptor_refused(self):
        with pytest.raises(ProtocolError, match="bad segment descriptor"):
            read_frame(io.BytesIO(self.descriptor_frame(shape="x") + bytes(16)))


class TestRobustnessErrorCodes:
    """Round-trips for the shard-era error codes and their details."""

    def test_shard_unavailable_roundtrip(self):
        from repro.frontend.protocol import error_to_dict

        payload = error_to_dict(
            "shard_unavailable",
            "server is draining and admits no new queries",
        )
        assert json.loads(json.dumps(payload)) == payload
        assert payload["code"] == "shard_unavailable"
        assert "details" not in payload

    def test_deadline_exceeded_roundtrip(self):
        from repro.frontend.protocol import DeadlineExceededError, error_to_dict

        e = DeadlineExceededError("deadline of 1.5s expired")
        payload = error_to_dict("deadline_exceeded", e)
        assert payload["error"] == (
            "DeadlineExceededError: deadline of 1.5s expired"
        )
        # DeadlineExceededError is a TimeoutError, hence an OSError:
        # retry policies treat it like any transient I/O failure.
        assert isinstance(e, TimeoutError) and isinstance(e, OSError)

    def test_explicit_details_travel(self):
        from repro.frontend.protocol import error_to_dict

        payload = error_to_dict(
            "overloaded", "queue full",
            details={"queue_depth": 7, "retry_after_s": 0.25},
        )
        assert payload["details"] == {"queue_depth": 7, "retry_after_s": 0.25}
        assert json.loads(json.dumps(payload)) == payload

    def test_wire_details_attribute_used_when_present(self):
        from repro.frontend.protocol import error_to_dict
        from repro.frontend.queryservice import ServiceOverloadedError

        e = ServiceOverloadedError(
            "pending queue full", queue_depth=5, retry_after_s=0.1
        )
        payload = error_to_dict("overloaded", e)
        assert payload["details"] == {"queue_depth": 5, "retry_after_s": 0.1}


class TestValueComponentsOnTheWire:
    def test_spec_instance_components_survive_roundtrip(self):
        """A query built with a multi-component spec instance leaves
        the ``value_components`` *field* at its default; the encoder
        must ship the spec's component count, not the field's."""
        from repro.aggregation.functions import MinAggregation

        q = make_query()
        from dataclasses import replace

        q = replace(q, aggregation=MinAggregation(2), value_components=1)
        back = query_from_dict(query_to_dict(q))
        assert back.aggregation == "min"
        assert back.value_components == 2
        assert back.spec().value_components == 2
