import ast
import functools
import hashlib
import inspect
import itertools
import json
import mmap
import os
import random
import re
import resource
import stat
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from conftest import rewired

from awgshuffle import (
    DEFAULT_CHANNEL_CAP,
    CapacityError,
    DomainError,
    IntegrityError,
    ParseError,
    ShuffleNetError,
    Topology,
    build_network,
    parse_topology,
    serialize_report,
    serialize_topology,
    topology_document,
    tradeoff_csv,
    tradeoff_table,
    verify_shuffle_equivalence,
    write_bytes,
)
from awgshuffle import serialize
from awgshuffle.serialize import _BLOCK, _EXPORTS


class TestJsonDocument:
    def test_counts(self, w323):
        doc = topology_document(w323)
        assert doc["schema_version"] == "1"
        assert len(doc["cables"]) == 6
        assert len(doc["channels"]) == 18
        assert doc["params"] == {
            "g": 3, "m": 2, "n": 3, "channel_count": 18, "lambda_count": 3
        }

    def test_addresses_carry_all_three_forms(self, w323):
        entry = topology_document(w323)["channels"][0]
        for key in ("input", "middle", "output"):
            address = entry[key]
            assert set(address) == {"decimal", "digits", "radices", "text"}

    def test_round_trip_is_lossless_and_byte_identical(self, w323):
        first = serialize_topology(w323, "json")
        parsed = _outcome(first)
        assert parsed == w323
        assert serialize_topology(parsed, "json") == first

    def test_round_trip_across_shapes(self):
        for g, m, n in [(1, 1, 1), (2, 1, 2), (4, 3, 2), (5, 1, 2), (2, 4, 3)]:
            t = build_network(g, m, n)
            data = serialize_topology(t, "json")
            assert _outcome(data) == t

    def test_unsupported_format(self, w323):
        with pytest.raises(DomainError):
            serialize_topology(w323, "yaml")

    # sha256 of the canonical JSON and DOT bytes: g > n, dot-separated
    # text (radices over 10), m = 1 (twice), g = 1 and n = 1
    GOLDEN = {
        (3, 2, 3): (
            "32e86c2c4561147233f27b81bbfb3e98ab8a7064ff3376a69d99d030503e82e0",
            "01d48cdd1c70e7cb8be582288df640b9137deb3d572af6ef472b073551261061",
        ),
        (64, 8, 16): (
            "0d143635afccd75f0274b28d00708d5a42cad05152d2be58d74bbe3ab9b30093",
            "3cf64f0e4c72c27ab55ec5e8283036bdb042243f204432eef69cb4c3bba37cf0",
        ),
        (11, 3, 12): (
            "5608d76779a57d1a4695115572e76c6ab714a62b43db63a4e58167579707323f",
            "4ac0e611b38bb9ed0212db867473f2424709a1d97db53c3cfa7d391ff1f8a893",
        ),
        (1, 32, 32): (
            "57b3df1a1cacbeab7dd3a0bb8e11e923cea1ad155c36f3a571ac999938238fdc",
            "deafe945ec018201672070707e9e023ff9708d22b632909cc4e969dcac3bc122",
        ),
        (8, 64, 1): (
            "344837fe94a0954591ffefea9673ba31a5cc89224152ff5cb1c2d202604db249",
            "82d9a16cdc55e8ed0bac9b0921d107f1a3344b71791dbf8240adfa0aa3edadd9",
        ),
        (16, 1, 32): (
            "e7daee83c2fa2acd26c1a25670de6bcb4186bb54605d8476bc89f2edb75bcf0a",
            "b376a91a479795e60ccd8082f512d3ad309d2ee7158792bff848c9749e4a5183",
        ),
    }

    @pytest.mark.parametrize("shape", sorted(GOLDEN))
    def test_golden_bytes(self, shape):
        t = build_network(*shape)
        got = tuple(
            hashlib.sha256(serialize_topology(t, fmt)).hexdigest()
            for fmt in ("json", "dot")
        )
        assert got == self.GOLDEN[shape]

    def test_document_is_the_parsed_canonical_bytes(self, w323):
        assert topology_document(w323) == json.loads(serialize_topology(w323, "json"))


def _reference_document(t):
    """The canonical JSON of ``t`` as json.dumps lays out dicts built from its traces."""

    def address(addr):
        return {"decimal": addr.decimal, "digits": list(addr.digits),
                "radices": list(addr.radices), "text": str(addr)}

    def locus(at):
        return {"device": at.device, "port": at.port, "wavelength": at.wavelength}

    p = t.params
    doc = json.loads(serialize_topology(t, "json"))  # header and metadata as rendered
    # the wiring law: port b of group a lands on input a of router b
    doc["cables"] = [{"from_group": a, "from_port": b, "to_awg": b, "to_input": a}
                     for a in range(p.g) for b in range(p.m)]
    doc["channels"] = []
    for tr in map(t.channel, range(t.params.channel_count)):
        doc["channels"].append({
            "input": address(tr.input_addr), "middle": address(tr.middle_addr),
            "output": address(tr.output_addr), "input_locus": locus(tr.input_locus),
            "middle_locus": locus(tr.middle_locus), "output_locus": locus(tr.output_locus),
            "wavelength": tr.wavelength,
        })
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class TestRendererOnMutants:
    """Fabrics the constructor builds render their own values, row templates or not."""

    # one window of several whole groups; windows of whole rows of one group
    # (m*n > _BLOCK); m = 1; g = 1; n > _BLOCK (no row text at all); and
    # 100 groups of 10 entries, so that one window spans many groups
    SHAPES = [(6, 3, 4), (3, 2, 3), (2, 40, 30), (5, 1, 7), (1, 6, 5), (1, 2, 1100),
              (100, 10, 1)]

    @staticmethod
    def mutants(t):
        p = t.params
        g, m, n = p.g, p.m, p.n
        a = g // 2  # a middle group
        row = (a * m + m - 1) * n  # its last router's row
        if m > 1:  # outputs swapped between routers 0 and 1, entry for entry
            outputs = list(t.outputs)
            first, second = (a * m) * n, (a * m + 1) * n
            outputs[first:first + n], outputs[second:second + n] = (
                outputs[second:second + n], outputs[first:first + n])
            yield "routers 0 and 1 swapped", rewired(t, outputs=outputs)
        outputs = list(t.outputs)  # two outputs of the last router's row swapped
        outputs[row], outputs[row - 1] = outputs[row - 1], outputs[row]
        yield "outputs swapped across entries", rewired(t, outputs=outputs)
        wavelengths = list(t.wavelengths)  # one wavelength of the last router's row
        wavelengths[row + n - 1] = (wavelengths[row + n - 1] + 1) % p.lambda_count
        yield "one wavelength changed", rewired(t, wavelengths=wavelengths)
        if m > 1:  # one output of router m-1 moved to router m-2: the same modulo n*g
            outputs = list(t.outputs)
            outputs[row + n - 1] -= g * n
            yield "one output moved by n*g", rewired(t, outputs=outputs)

    @staticmethod
    def export_ladder():
        """The benchmark's export ladder, read from its source without running it."""
        source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        for node in ast.parse(source.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.AnnAssign) and node.target.id == "EXPORT_LADDER":
                return ast.literal_eval(node.value)
        raise LookupError("EXPORT_LADDER")

    def test_built_fabrics_render_no_window_in_full(self, monkeypatch):
        # every window of a built fabric equals its row template's words; a gate
        # comparing the fabric's views with tuples would fill every window in full
        fills = []

        def counted(stages, w):  # the row template passes tokens, a full fill a column
            fills.append("row template" if isinstance(w, str) else "full")
            return slots(stages, w)

        slots = serialize._slots
        monkeypatch.setattr(serialize, "_slots", counted)
        ladder = self.export_ladder()
        assert len(ladder) >= 10
        for shape in ladder:
            fills.clear()
            serialize_topology(build_network(*shape), "json")
            assert fills == ["row template"], shape

    @pytest.mark.parametrize("shape", SHAPES)
    def test_built_fabric_renders_as_the_reference(self, shape):
        t = build_network(*shape)
        assert serialize_topology(t, "json") == _reference_document(t)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_mutants_render_as_the_reference(self, shape):
        t = build_network(*shape)
        for name, mutant in self.mutants(t):
            assert mutant != t, name
            assert serialize_topology(mutant, "json") == _reference_document(mutant), name


class TestParseErrors:
    def test_empty_input(self):
        _fails(b"", ParseError, "empty input")

    @pytest.mark.parametrize("blank", ["\x1c", " \x1f\n", "\t\x0b\x0c\r\x1d\x1e ", "\x85", " \xa0"])
    def test_input_that_strip_leaves_empty(self, blank):
        # str.isspace() counts \x1c to \x1f as space and bytes.isspace() does not; as
        # decoded text, \x85 and \xa0 are space too
        for data in (blank, blank.encode()):
            _fails(data, ParseError, "^empty input$")

    @pytest.mark.parametrize("buffer", [bytearray, memoryview])
    def test_a_buffer_reads_as_the_bytes_it_holds(self, w323, buffer):
        # a canonical document, an empty one and one with no header, each ending as its bytes do
        for data in (serialize_topology(w323, "json"), b"", b"{}"):
            assert _ending(parse_topology, buffer(data)) == _outcome(data)
        assert parse_topology(buffer(serialize_topology(w323, "json"))) == w323

    @pytest.mark.parametrize("base", [bytes, str])
    def test_a_subclass_reads_as_its_base_type(self, w323, base):
        # a canonical document, an empty one and a blank one, each ending as its base type does
        class Sub(base):
            pass

        inputs = [serialize_topology(w323, "json"), b"{}", b" \n"]
        if base is str:
            inputs = [data.decode() for data in inputs]
        for data in inputs:
            assert _ending(parse_topology, Sub(data)) == _outcome(data)
        assert parse_topology(Sub(inputs[0])) == w323

    def test_invalid_json(self, w323):
        _fails(b"{nope", ParseError, "invalid JSON")
        # punctuation out of place, at the top level and in a list, ends as json.loads words it
        doc = serialize_topology(w323, "json")
        for old, new in [(b'"awg_bank": ', b'"awg_bank":: '),  # "::" after a key
                         (b'"1"\n}', b'"1",\n}'),  # a "," before "}"
                         (b"}\n  ],", b"},\n  ],"),  # a "," before "]"
                         (b"},\n    {", b"}\n    {")]:  # two entries with no "," between them
            edited = doc.replace(old, new, 1)
            assert edited != doc
            for data in (edited, edited.decode()):
                _fails(data, ParseError, "^invalid JSON: ")

    def test_invalid_utf8(self):
        _fails(b'{"schema_version": "\xff"}', ParseError, "invalid UTF-8")

    def test_nesting_too_deep_for_the_decoder(self):
        _fails(b"[" * 100_000, ParseError, "invalid JSON")

    def test_wrong_schema_version(self, w323):
        doc = topology_document(w323)
        doc["schema_version"] = "2"
        _fails(json.dumps(doc), ParseError, "schema_version")

    def test_missing_key_names_json_path(self, w323):
        doc = topology_document(w323)
        del doc["channels"][3]["output"]
        _fails(json.dumps(doc), ParseError, r"\$\.channels\[3\]\.output")

    def test_wrong_type_names_json_path(self, w323):
        doc = topology_document(w323)
        doc["params"]["g"] = "three"
        _fails(json.dumps(doc), ParseError, r"\$\.params\.g")

    def test_bool_port_names_json_path(self, w323):
        doc = topology_document(w323)
        assert doc["channels"][3]["input_locus"]["port"] == 1
        doc["channels"][3]["input_locus"]["port"] = True  # == 1 in Python
        _fails(json.dumps(doc), ParseError, r"\$\.channels\[3\]\.input_locus\.port")

    def test_float_decimal_names_json_path(self, w323):
        doc = topology_document(w323)
        doc["channels"][5]["input"]["decimal"] = 5.0  # == 5 in Python
        _fails(json.dumps(doc), ParseError, r"\$\.channels\[5\]\.input\.decimal")

    def test_later_parse_error_outranks_earlier_integrity_error(self, w323):
        doc = topology_document(w323)
        doc["channels"][1]["output"]["decimal"] += 1
        del doc["channels"][10]["wavelength"]
        _fails(json.dumps(doc), ParseError, r"\$\.channels\[10\]\.wavelength")

    def test_parse_error_outranks_invalid_params(self, w323):
        doc = topology_document(w323)
        doc["params"]["g"] = 0
        del doc["channels"][7]["middle"]
        _fails(json.dumps(doc), ParseError, r"\$\.channels\[7\]\.middle")

    def test_non_positive_params(self, w323):
        doc = topology_document(w323)
        doc["params"]["g"] = 0
        _fails(json.dumps(doc), ParseError, r"\$\.params invalid")

    # the canonical layout, a re-layout, and one whose lists precede the awg_bank
    @pytest.mark.parametrize("indent, lists_first", [(2, False), (1, False), (2, True)],
                             ids=["2", "1", "lists-first"])
    def test_params_over_the_cap(self, w323, indent, lists_first):
        doc = topology_document(w323)
        doc["params"].update(g=1000, m=1000, n=1000, channel_count=10**9, lambda_count=1000)

        def render(doc):
            if lists_first:
                doc = {key: doc[key] for key in ("cables", "channels")} | doc
            return json.dumps(doc, indent=indent) + "\n"

        _fails(render(doc), CapacityError,
               r"^W\(1000,1000,1000\) has 1000000000 channels, over the cap of 1000000$")
        del doc["channels"][7]["middle"]  # a structural problem outranks the cap
        _fails(render(doc), ParseError, r"^\$\.channels\[7\]\.middle is missing$")

    @pytest.mark.parametrize("data", [b"[]", b"1", b"null", b'"x"'])
    def test_top_level_value_that_is_no_object(self, data):
        _fails(data, ParseError, r"^\$ must be an object$")

    @pytest.mark.parametrize("section, pos, entry, indent", [
        ("channels", 3, 7, 2),  # the canonical layout
        ("cables", 0, [1], 1),  # a re-layout
    ])
    def test_list_entry_that_is_no_object(self, section, pos, entry, indent):
        doc = topology_document(build_network(2, 2, 2))
        doc[section][pos] = entry
        data = json.dumps(doc, sort_keys=True, indent=indent) + "\n"
        _fails(data, ParseError, rf"^\$\.{section}\[{pos}\] must be an object$")

    def test_integer_too_long_to_decode(self):
        _fails(b'{"a": ' + b"1" * 5000 + b"}", ParseError, "^invalid JSON: ")

    def test_integer_too_long_to_decode_in_one_entry(self, w323):
        doc = serialize_topology(w323, "json")
        edited = re.sub(rb'"wavelength": \d+', b'"wavelength": ' + b"1" * 5000, doc, count=1)
        got = _outcome(edited)
        assert got[0] is ParseError and got[1].startswith("invalid JSON: ")


_DELETED = object()


class TestParseErrorMatrix:
    """Each field of the header, of one cable and of one channel, edited one way at a time.

    Each edited document is rendered in the canonical layout, where the
    walk passes every other entry undecoded, and in the compact layout,
    where it decodes them all; both end in the same exact outcome.
    """

    EDITS = [_DELETED, True, "x", 1.0, [], {}]
    # the key an emptied object is first found missing: validation order, not sorted order
    FIRST_KEY = {"params": "g", "awg_bank": "count", "input": "decimal", "middle": "decimal",
                 "output": "decimal", "input_locus": "device", "middle_locus": "device",
                 "output_locus": "device"}
    ENTRY = "$.channels[4] is inconsistent with the fabric derived from its own parameters"

    @staticmethod
    def fields(doc):
        """Key path and value of every field under test."""
        yield ("schema_version",), doc["schema_version"]
        for section in ("params", "awg_bank"):
            yield (section,), doc[section]
            for key, value in doc[section].items():
                yield (section, key), value
        for key, value in doc["cables"][2].items():
            yield ("cables", 2, key), value
        for key, value in doc["channels"][4].items():
            yield ("channels", 4, key), value
            for sub, item in value.items() if isinstance(value, dict) else ():
                yield ("channels", 4, key, sub), item

    def expected(self, path, original, edit):
        if edit is _DELETED:
            return ParseError, f"{path} is missing"
        kind = type(original)
        if edit is True and kind is int:
            return ParseError, f"{path} must be an integer"
        if type(edit) is not kind:
            return ParseError, f"{path} must be {kind.__name__}"
        if kind is dict:
            return ParseError, f"{path}.{self.FIRST_KEY[path.rpartition('.')[2]]} is missing"
        if path == "$.schema_version":
            return ParseError, "$.schema_version is 'x', this reader supports '1'"
        return IntegrityError, self.ENTRY  # an empty digit list or another text

    def cases(self, doc):
        for keys, original in self.fields(doc):
            path = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
            edits = [(edit, self.expected(path, original, edit)) for edit in self.EDITS]
            if isinstance(original, list):
                for bad in (True, 1.0, "x"):
                    edits.append(([original[0], bad, *original[2:]],
                                  (ParseError, f"{path}[1] must be an integer")))
            for edit, want in edits:
                edited = json.loads(json.dumps(doc))
                parent = edited
                for key in keys[:-1]:
                    parent = parent[key]
                if edit is _DELETED:
                    del parent[keys[-1]]
                else:
                    parent[keys[-1]] = edit
                yield keys, edited, want

    @pytest.mark.parametrize("layout", ["canonical", "compact"])
    def test_every_field_every_edit(self, w323, layout):
        doc = topology_document(w323)
        wrong, count = [], 0
        for keys, edited, want in self.cases(doc):
            if layout == "canonical":
                data = (json.dumps(edited, sort_keys=True, indent=2) + "\n").encode()
            else:
                data = json.dumps(edited, sort_keys=True, separators=(",", ":")).encode()
            got = _outcome(data)
            if got != want:
                wrong.append((keys, got, want))
            count += 1
        assert not wrong
        assert count == 282  # 44 fields, six edits each, three bad elements in six lists

    @pytest.mark.parametrize("layout", [{"indent": 2}, {"separators": (",", ":")}])
    def test_first_error_in_validation_order(self, w323, layout):
        doc = topology_document(w323)
        doc["channels"][4]["middle"]["decimal"] = "x"
        doc["channels"][4]["input_locus"]["port"] = "x"
        data = json.dumps(doc, sort_keys=True, **layout) + "\n"
        _fails(data, ParseError, r"^\$\.channels\[4\]\.middle\.decimal must be int$")


def _reordered(value):
    """``value`` with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [_reordered(item) for item in value]
    return value


class TestIntegrity:
    def test_duplicated_output_address(self, w323):
        doc = topology_document(w323)
        doc["channels"][1]["output"] = doc["channels"][0]["output"]
        _fails(json.dumps(doc), IntegrityError, r"channels\[1\]")

    def test_tampered_cable(self, w323):
        doc = topology_document(w323)
        doc["cables"][2]["to_awg"] = 1
        _fails(json.dumps(doc), IntegrityError, r"cables\[2\]")

    def test_dropped_channel(self, w323):
        doc = topology_document(w323)
        del doc["channels"][5]
        _fails(json.dumps(doc), IntegrityError, "17 entries, expected 18")

    @pytest.mark.parametrize("layout", [{"sort_keys": True, "indent": 2}, {}])
    def test_empty_cable_list(self, layout):
        doc = topology_document(build_network(2, 2, 2))
        doc["cables"] = []
        _fails(json.dumps(doc, **layout) + "\n", IntegrityError,
               r"^\$\.cables has 0 entries, expected 4$")

    def test_first_bad_channel_is_named(self, w323):
        doc = topology_document(w323)
        doc["channels"][4]["middle_locus"]["wavelength"] += 1
        doc["channels"][9]["output"]["text"] = "x"
        _fails(json.dumps(doc), IntegrityError, r"channels\[4\] is inconsistent")

    def test_extra_key_is_an_integrity_error(self, w323):
        doc = topology_document(w323)
        doc["channels"][17]["input"]["note"] = 1
        _fails(json.dumps(doc), IntegrityError, r"channels\[17\] is inconsistent")

    def test_non_canonical_equal_document_is_accepted(self, w323):
        doc = _reordered(topology_document(w323))
        doc["metadata"]["generator"] = "another writer 0.1"
        data = json.dumps(doc)
        assert data.encode() != serialize_topology(w323, "json")
        assert _outcome(data) == w323

    def test_inconsistent_declared_counts(self, w323):
        doc = topology_document(w323)
        doc["params"]["channel_count"] = 99
        _fails(json.dumps(doc), IntegrityError, r"\$\.params")


class TestInputBudget:
    BUDGET = 1_321_000_758  # bytes: the largest canonical document within the channel cap
    OVER = f"^input of {BUDGET + 2} bytes is over the budget of {BUDGET} bytes for the cap of " \
           f"{DEFAULT_CHANNEL_CAP} channels$"

    def test_canonical_documents_at_their_cap_are_accepted(self):
        # one cap for every caller, and the budget's formula at each fabric's own channel count
        assert list(inspect.signature(parse_topology).parameters) == ["data"]
        assert serialize._document_budget() == self.BUDGET
        for g, m, n in [(3, 2, 3), (1, 1, 1), (11, 3, 12), (4, 3, 2), (2, 40, 1), (12, 1, 12)]:
            t = build_network(g, m, n)
            data = serialize_topology(t, "json")
            assert len(data) <= serialize._document_budget(g * m * n)
            assert _outcome(data) == t

    @staticmethod
    def _over_the_budget(first=b""):
        """A read-only map of a sparse file two bytes over the budget, ``first`` at its start:
        a buffer of that size that holds no memory until its pages are read."""
        with tempfile.TemporaryFile() as handle:
            handle.write(first)
            handle.truncate(TestInputBudget.BUDGET + 2)
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    def test_oversize_document_is_refused(self, w323):
        data = serialize_topology(w323, "json")
        padded = data + b" " * (20 * len(data))
        assert _outcome(padded) == w323
        with self._over_the_budget() as buffer:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with pytest.raises(CapacityError, match=self.OVER):
                parse_topology(buffer)
            # the budget counts a buffer's bytes, not its items
            with memoryview(buffer) as view, view.cast("I") as words:
                with pytest.raises(CapacityError, match=self.OVER):
                    parse_topology(words)
            # refused unread: a copy of the input would raise the peak by 1.3 GB (KiB here)
            assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 64 * 1024

    @pytest.mark.parametrize("layout", [{"indent": 1}, {"separators": (",", ":")}])
    def test_re_laid_document_peaks_near_its_own_size(self, layout):
        # json.loads of the whole document peaked at 4.7x (indent=1) and 8.3x (compact)
        t = build_network(16, 32, 16)
        data = json.dumps(topology_document(t), **layout).encode()
        tracemalloc.start()
        try:
            assert parse_topology(data) == t
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * len(data)

    def test_canonical_document_peaks_near_its_own_size(self):
        # reading holds one block of the fabric's entries, rendered and joined
        # (2 MB here), beside the input; ASCII bytes are walked in place, where
        # their decoded text took 1.2x the input
        t = build_network(16, 32, 16)
        data = serialize_topology(t, "json")
        tampered = _off_by_one(data, _entry_spans(data, "channels")[5000], b"wavelength")
        cases = [(data, t, 0.25), (data.decode(), t, 0.5), (tampered, IntegrityError, 0.25)]
        for doc, want, bound in cases:
            tracemalloc.start()
            try:
                got = _ending(parse_topology, doc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (got[0] if isinstance(got, tuple) else got) == want
            assert peak <= bound * len(doc), (type(doc), peak / len(doc))

    def test_refused_before_decoding(self):
        # a first page that is not UTF-8: the budget refuses the input before it is decoded
        with self._over_the_budget(b"\xff" * mmap.PAGESIZE) as buffer:
            with pytest.raises(CapacityError, match=self.OVER):
                parse_topology(buffer)

    def test_params_too_large_to_print_are_over_the_cap(self, w323):
        doc = topology_document(w323)
        doc["params"].update(g=10**4000, m=10**4000)
        _fails(json.dumps(doc, indent=1), CapacityError,
               r"^W\(1(0{4000}),1\1,3\) has <8001 digits> channels, over the cap of 1000000$")
        # an awg_bank member of that size names another fabric than the params
        for key in ("count", "inputs", "lambda_count", "outputs"):
            doc = topology_document(w323)
            doc["awg_bank"][key] = 10**4000
            _fails(json.dumps(doc, indent=1), IntegrityError, r"^\$\.awg_bank is inconsistent")


def _reference(data):
    """How reading ``data`` must end, from json.loads of the whole document.

    The header is validated, the fabric its params name is built, and
    every section is compared with that fabric's document in compact
    layout. A document that differs is validated whole before the
    difference is named, so a structural problem anywhere outranks it.
    """
    budget = serialize._document_budget()
    if len(data) > budget:
        raise CapacityError(f"input of {len(data)} bytes is over the budget of {budget} bytes "
                            f"for the cap of {DEFAULT_CHANNEL_CAP} channels")
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc}") from None
    if not data.strip():
        raise ParseError("empty input")
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    serialize._validate_header(doc)
    shape = g, m, n = doc["params"]["g"], doc["params"]["m"], doc["params"]["n"]
    failure = None
    try:
        t, want = _canonical(shape)
    except DomainError as exc:
        failure = ParseError(f"$.params invalid: {exc}")
    except CapacityError as exc:
        failure = exc
    differs = failure or [s for s, text in want.items() if _compact(doc.get(s)) != text]
    if differs:
        for section, skeleton in serialize._ENTRY_SKELETONS.items():
            for pos, entry in enumerate(serialize._require(doc, section, list, "$")):
                serialize._validate(entry, skeleton, f"$.{section}[{pos}]")
        serialize._require(doc, "metadata", dict, "$")
    if failure:
        raise failure
    for section in differs:
        if section in ("params", "awg_bank"):
            raise IntegrityError(f"$.{section} is inconsistent with (g,m,n)=({g},{m},{n})")
        got, expected = doc[section], topology_document(t)[section]
        if len(got) != len(expected):
            raise IntegrityError(f"$.{section} has {len(got)} entries, expected {len(expected)}")
        pos = next(k for k, (a, b) in enumerate(zip(got, expected)) if _compact(a) != _compact(b))
        raise IntegrityError(
            f"$.{section}[{pos}] is inconsistent with the fabric derived from its own parameters")
    serialize._require(doc, "metadata", dict, "$")
    return t


@functools.lru_cache
def _canonical(shape):
    """The fabric of ``shape``, and the compact JSON of each section its document compares."""
    t = build_network(*shape)
    doc = topology_document(t)
    return t, {s: _compact(doc[s]) for s in ("params", "awg_bank", "cables", "channels")}


def _compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _ending(read, data):
    try:
        return read(data)
    except ShuffleNetError as exc:
        return type(exc), str(exc)


def _outcome(data):
    """How parse_topology ends on ``data``, once it is seen to end as the reference does."""
    got = _ending(parse_topology, data)
    assert got == _ending(_reference, data)
    return got


def _fails(data, kind, pattern=""):
    got = _outcome(data)
    assert isinstance(got, tuple) and got[0] is kind and re.search(pattern, got[1]), got


class TestCanonicalFastPath:
    """Single edits of canonical documents end as the reference reading does."""

    # W(5,5,41): 1,025 channels, one whole block and a partial one;
    # W(3,345,1): 1,035 cables and channels, so the cable list spans blocks too
    SHAPES = [(3, 2, 3), (11, 3, 12), (5, 5, 41), (3, 345, 1)]

    def test_a_shape_spans_blocks(self):
        assert len(_chunk_firsts(build_network(5, 5, 41), "channels")) > 2
        assert len(_chunk_firsts(build_network(3, 345, 1), "cables")) > 2

    @pytest.mark.parametrize("shape", SHAPES)
    def test_edits_inside_every_chunk(self, shape):
        rng = random.Random(sum(shape))
        t = build_network(*shape)
        doc = serialize_topology(t, "json")
        start = 0
        for chunk in _EXPORTS["json"](t):
            end = start + len(chunk)
            digits = [start + m.start() for m in re.finditer(rb"[0-9]", chunk)]
            # the chunk's first byte: only a comparison with this very chunk sees it
            edits = [doc[:start] + b"x" + doc[start + 1:]]
            if digits:
                pos = rng.choice(digits)
                digit = rng.choice(b"0123456789".replace(doc[pos:pos + 1], b""))
                edits.append(doc[:pos] + bytes([digit]) + doc[pos + 1:])
            pos = rng.randrange(start, end)
            edits.append(doc[:pos] + doc[pos + 1:])
            edits.append(doc[:pos] + rng.choice([b" ", b"1", b",", b"}", b"x"]) + doc[pos:])
            for edited in edits:
                got = _outcome(edited)
                assert not isinstance(got, tuple) or got[0] in (ParseError, IntegrityError)
            start = end
        assert start == len(doc)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_truncated(self, shape):
        rng = random.Random(sum(shape))
        doc = serialize_topology(build_network(*shape), "json")
        cuts = [0, 1, len(doc) - 2, len(doc) - 1] + rng.sample(range(len(doc)), 5)
        got = [_outcome(doc[:cut]) for cut in cuts]
        assert got[3] == build_network(*shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_trailing_bytes(self, shape):
        t = build_network(*shape)
        doc = serialize_topology(t, "json")
        tail = list(_EXPORTS["json"](t))[-1]
        for extra in (b"x", tail):  # a repeated tail still ends like a canonical document
            got = _outcome(doc + extra)
            assert got[0] is ParseError and got[1].startswith("invalid JSON")
        assert _outcome(doc + b" \t\n") == t

    @pytest.mark.parametrize("shape", SHAPES)
    def test_other_generator_is_accepted(self, shape):
        t = build_network(*shape)
        doc = serialize_topology(t, "json").replace(
            b'"generator": "awgshuffle ', b'"generator": "another writer ')
        assert _outcome(doc) == t

    @pytest.mark.parametrize("shape", SHAPES)
    def test_tail_names_another_shape(self, shape):
        g, m, n = shape
        doc = serialize_topology(build_network(*shape), "json")
        edited = doc.replace(f'\n    "g": {g},\n'.encode(), f'\n    "g": {g + 1},\n'.encode())
        assert edited != doc
        got = _outcome(edited)
        assert got[0] is IntegrityError and "$.params" in got[1]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_str_input(self, shape):
        t = build_network(*shape)
        text = serialize_topology(t, "json").decode()
        assert _outcome(text) == t
        edited = text.replace('"wavelength": 0', '"wavelength": 1', 1)
        got = _outcome(edited)
        assert got[0] is IntegrityError


def _chunk_firsts(t, section):
    """The index of each chunk's first entry, as the writer renders one list and the reader
    compares it, and the entry count after the last chunk."""
    return [*itertools.accumulate((k for _, k in serialize._lists(t)[section]), initial=0)]


def _entry_spans(doc, section):
    """Byte spans of the entries of one list of a canonical document."""
    start = doc.index(b'"%s": [' % section.encode())
    end = doc.index(b"\n  ]", start)
    return [(start + m.start(1), start + m.end(1))
            for m in re.finditer(rb"\n(    \{.*?\n    \})", doc[start:end], re.S)]


def _edit(doc, span, pattern, replace):
    """``doc`` with the first match of ``pattern`` inside ``span`` replaced."""
    start, end = span
    entry = re.sub(pattern, replace, doc[start:end], count=1)
    assert entry != doc[start:end]
    return doc[:start] + entry + doc[end:]


def _off_by_one(doc, span, key=b"port"):
    return _edit(doc, span, rb'"%s": (\d+)' % key,
                 lambda m: b'"%s": %d' % (key, int(m.group(1)) + 1))


def _reformatted(doc, span):
    """An entry with reversed key order and another indent: the same JSON value."""
    start, end = span
    text = json.dumps(_reordered(json.loads(doc[start:end])), indent=1).encode()
    return doc[:start] + text + doc[end:]


class TestLocalizedEdits:
    """Edits of canonical documents end as the reference reading does.

    Each case names what it must end as: a fabric, or an error type and
    words its message holds.
    """

    # g > n, m = 1, g = 1 and n = 1 after the first three shapes of
    # TestCanonicalFastPath, and its cable list that spans blocks last
    SHAPES = [
        (3, 2, 3), (11, 3, 12), (5, 5, 41), (7, 3, 2), (4, 1, 5), (1, 5, 4), (5, 3, 1),
        (3, 345, 1),
    ]

    @staticmethod
    def cases(t, doc):
        channels, cables = _entry_spans(doc, "channels"), _entry_spans(doc, "cables")
        n = len(channels)
        assert n == t.params.channel_count and len(cables) == t.params.g * t.params.m
        last, mid = n - 1, min(n // 2, _BLOCK)
        for k in sorted({0, mid, last}):
            at = f"$.channels[{k}]"
            yield _off_by_one(doc, channels[k]), IntegrityError, at
            yield _reformatted(doc, channels[k]), t, None
            yield _edit(doc, channels[k], rb'"decimal": \d+', b'"decimal": true'), \
                ParseError, at + ".input.decimal"
            yield _edit(doc, channels[k], rb'"decimal": (\d+)', rb'"decimal": \1.0'), \
                ParseError, at + ".input.decimal"
            s, e = channels[k]
            duplicated = doc[:e] + b",\n" + doc[s:e] + doc[e:]
            yield duplicated, IntegrityError, f"{n + 1} entries, expected {n}"
            # a run of whitespace or of nothing is no entry: invalid JSON
            yield doc[:s] + b" " * (e - s) + doc[e:], ParseError, "invalid JSON"
            yield doc[:s] + doc[e:], ParseError, "invalid JSON"
            yield _edit(doc, channels[k], rb'"text": "', '"text": "\u00e9'.encode()), \
                IntegrityError, at
            yield _edit(doc, channels[k], rb'"text": "', b'"text": "\xff'), \
                ParseError, "invalid UTF-8"
        # the first cable of the second block too, when there is one
        for k in sorted({0, min(len(cables) - 1, _BLOCK), len(cables) - 1}):
            yield _off_by_one(doc, cables[k], b"to_input"), IntegrityError, f"$.cables[{k}]"
        s, e = channels[1]
        yield doc[:s - 2] + doc[e:], IntegrityError, f"{n - 1} entries, expected {n}"
        # two distant entries: one run when few entries lie between them
        two = _off_by_one(_off_by_one(doc, channels[last]), channels[0])
        yield two, IntegrityError, "$.channels[0]"
        two = _off_by_one(_reformatted(doc, channels[last]), channels[0])
        yield two, IntegrityError, "$.channels[0]"
        two = _off_by_one(_reformatted(doc, channels[0]), channels[last])
        yield two, IntegrityError, f"$.channels[{last}]"
        # two adjacent entries, one on each side of a chunk boundary when there is one
        k = min(_chunk_firsts(t, "channels")[1], last)
        two = _off_by_one(_off_by_one(doc, channels[k]), channels[k - 1])
        yield two, IntegrityError, f"$.channels[{k - 1}]"
        e = channels[0][1]
        split = doc[:e] + b'\n  ],\n  "x": [\n' + doc[e + 2:]
        yield split, IntegrityError, f"1 entries, expected {n}"
        # edits reaching into the end of the list or into the tail
        e = channels[last][1]
        closed = doc[:e] + b"\n ]" + doc[e + 4:]
        yield _off_by_one(closed, channels[last]), IntegrityError, f"$.channels[{last}]"
        yield closed, t, None
        tail = doc.replace(b'"generator": "awgshuffle ', b'"generator": "another ')
        yield _off_by_one(tail, channels[mid]), IntegrityError, f"$.channels[{mid}]"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_each_edit_ends_as_on_the_decoding_path(self, shape):
        t = build_network(*shape)
        doc = serialize_topology(t, "json")
        for edited, want, words in self.cases(t, doc):
            got = _outcome(edited)
            if isinstance(want, type):
                assert got[0] is want and words in got[1]
            else:
                assert got == want

    def test_str_input(self, w323):
        text = serialize_topology(w323, "json").decode()
        edited = _off_by_one(text.encode(), _entry_spans(text.encode(), "channels")[7]).decode()
        got = _outcome(edited)
        assert got[0] is IntegrityError and "$.channels[7] is" in got[1]

    def test_one_field_tamper_decodes_no_more_than_one_entry(self, monkeypatch):
        t = build_network(5, 5, 41)
        doc = serialize_topology(t, "json")
        channels = _entry_spans(doc, "channels")
        decoded = []

        def decode(text, pos):
            value, end = real(text, pos)
            if type(value) is dict and {"from_group", "input"} & value.keys():  # a list entry
                decoded.append(end - pos)
            return value, end

        real = serialize._DECODE
        monkeypatch.setattr(serialize, "_DECODE", decode)
        assert _outcome(doc) == t and decoded == []
        # a space before every entry's ",": each entry's own text is still the fabric's
        spaced = doc.replace(b"},\n    {", b"} ,\n    {")
        for data in (spaced, spaced.decode()):
            assert _outcome(data) == t and decoded == []
        for k in (0, 700, _BLOCK, len(channels) - 1):
            del decoded[:]
            _fails(_off_by_one(doc, channels[k], b"wavelength"), IntegrityError,
                   rf"^\$\.channels\[{k}\] is")
            # the entry's own text, without the indent before its "{"
            assert decoded == [channels[k][1] - channels[k][0] - 4]

    def test_the_rest_of_a_chunk_is_held_in_one_comparison(self):
        # all of a chunk from its next entry on is compared at once, also after a
        # differing entry; a part that differs is measured exactly
        calls = []

        class Source(bytes):  # counts the comparisons
            def startswith(self, prefix, pos):
                calls.append(len(prefix))
                return bytes.startswith(self, prefix, pos)

        chunk = next(serialize._lists(build_network(3, 2, 3))["channels"])[0]
        for at in (0, 1, 500, len(chunk) - 1):
            del calls[:]
            assert serialize._held(Source(b"xx" + chunk[at:]), 2, chunk, at) == len(chunk) - at
            assert calls == [len(chunk) - at]
            for held in {0, 1, 2, 37, len(chunk) - at - 1} & set(range(len(chunk) - at)):
                source = Source(b"xx" + chunk[at:at + held] + b"\0" + chunk[at + held + 1:])
                assert serialize._held(source, 2, chunk, at) == held

    def test_tamper_at_a_block_boundary_decodes_that_entry_alone(self, monkeypatch):
        # W(16,16,12): 3,072 channels in chunks of whole groups; a tamper in a
        # chunk's first or last entry leaves the rest of that chunk a run
        t = build_network(16, 16, 12)
        doc = serialize_topology(t, "json")
        decoded = []

        def decode(text, pos):
            value, end = real(text, pos)
            if type(value) is dict and {"from_group", "input"} & value.keys():  # a list entry
                decoded.append(end - pos)
            return value, end

        real = serialize._DECODE
        monkeypatch.setattr(serialize, "_DECODE", decode)
        assert _outcome(doc) == t and decoded == []
        channels, cables = _entry_spans(doc, "channels"), _entry_spans(doc, "cables")
        firsts = _chunk_firsts(t, "channels")
        assert len(firsts) > 3 and firsts[-1] == len(channels)
        edits = [("channels", k, b"wavelength")
                 for first, end in itertools.pairwise(firsts) for k in (first, end - 1)]
        edits.append(("cables", 100, b"to_input"))
        for section, k, key in edits:
            edited = _off_by_one(doc, (channels if section == "channels" else cables)[k], key)
            del decoded[:]
            _fails(edited, IntegrityError, rf"^\$\.{section}\[{k}\] is")
            start, end = _entry_spans(edited, section)[k]
            assert decoded == [end - start - 4]  # the entry's own text, without its indent


class TestOneWalk:
    """A document is walked once, against the fabric its ``awg_bank`` names, in any layout.

    Only one whose lists precede the bank, or whose bank disagrees with
    its params, has its lists walked again against the params' fabric.
    """

    @staticmethod
    def decoded(monkeypatch):
        """The values the reader decodes from now on, in order."""
        values = []

        def decode(text, pos):
            value, end = real(text, pos)
            values.append(value)
            return value, end

        real = serialize._DECODE
        monkeypatch.setattr(serialize, "_DECODE", decode)
        return values

    @pytest.mark.parametrize("layout", [{"indent": 1}, {"separators": (",", ":")}])
    def test_a_re_laid_document_decodes_each_value_once(self, w323, monkeypatch, layout):
        doc = topology_document(w323)
        data = json.dumps(doc, **layout)
        decoded = self.decoded(monkeypatch)
        assert parse_topology(data) == w323
        # 4 header members and 24 entries, 28 decodes, each once and in document order
        assert decoded == [doc["awg_bank"], *doc["cables"], *doc["channels"],
                           doc["metadata"], doc["params"], doc["schema_version"]]

    def test_lists_before_the_bank_are_walked_twice(self, w323, monkeypatch):
        doc = topology_document(w323)
        data = json.dumps({key: doc[key] for key in ("cables", "channels")} | doc, indent=1)
        decoded = self.decoded(monkeypatch)
        assert _outcome(data) == w323
        assert len(decoded) == 4 + 2 * 24  # validated, then compared with the params' fabric

    def test_a_bank_too_large_to_word_leaves_the_error_to_the_params(self, w323):
        # W(10**4000, 10**4000, 3) is over the cap, its channel count worded by its digits
        doc = topology_document(w323)
        doc["awg_bank"].update(count=10**4000, inputs=10**4000)
        _fails(json.dumps(doc, indent=1), IntegrityError, r"^\$\.awg_bank is inconsistent")

    @pytest.mark.parametrize("first", [("cables", "channels"), ("cables",), ("channels",)])
    @pytest.mark.parametrize("indent", [2, 1])
    def test_lists_before_the_bank_end_as_the_reference(self, w323, first, indent):
        # a list after the bank is compared with the fabric fixed at the first list
        def edited(section, k, key, delete=False):
            doc = topology_document(w323)
            target = doc[section] if k is None else doc[section][k]
            if delete:
                del target[key]
            else:
                target[key] += 1
            return doc

        cases = [
            (topology_document(w323), None, None),
            (edited("cables", 4, "to_input"), IntegrityError, r"^\$\.cables\[4\] is inconsistent"),
            (edited("channels", 9, "wavelength"), IntegrityError, r"^\$\.channels\[9\] is"),
            (edited("awg_bank", None, "count"), IntegrityError, r"^\$\.awg_bank is inconsistent"),
            (edited("params", None, "g"), IntegrityError, r"^\$\.params is inconsistent"),
            (edited("channels", 7, "middle", delete=True), ParseError, r"^\$\.channels\[7\]\.mid"),
        ]
        for doc, kind, pattern in cases:
            data = json.dumps({key: doc[key] for key in first} | doc, indent=indent)
            if kind is None:
                assert _outcome(data) == w323
            else:
                _fails(data, kind, pattern)


_PALETTE = '0123456789 \t\n,:{}[]"\\-.eEx\u00e9'
_HEADER_KEYS = {key for section in serialize._HEADER_SKELETON.values() for key in section}


def _mutants(doc, render, rng, count, first):
    """``count`` seeded mutations of ``doc`` rendered by ``render``, of each kind in turn."""
    text = render(doc)
    scalars = list(re.finditer(r'"\w+": ?(-?\d+|"[^"]*")', text))
    keys = [m.start() for m in re.finditer(r'"\w+": ?', text)]
    closers = [m.start() for m in re.finditer(r"[]}]", text)]
    header = [m for m in scalars if m.group().split('"')[1] in _HEADER_KEYS]
    for i in range(count):
        kind, pos = (first + i) % 12, rng.randrange(len(text) + 1)
        if kind == 0:  # an edited character
            yield text[:pos] + rng.choice(_PALETTE) + text[pos + 1:]
        elif kind == 1:  # a dropped or an added one
            added = text[:pos] + rng.choice(_PALETTE) + text[pos:]
            yield rng.choice([text[:pos] + text[pos + 1:], added])
        elif kind == 2:  # a repeated key: before its last occurrence, or after it
            value = rng.choice(["0", "1", '"x"', "[]", "{}", "true"])
            if rng.random() < 0.5:
                at = rng.choice(keys)
                key = text[at:text.index('"', at + 1) + 1]
                yield f"{text[:at]}{key}: {value}, {text[at:]}"
            else:
                member = rng.choice(scalars)
                yield f"{text[:member.end()]}, {member.group().split(':')[0]}: {value}" \
                      f"{text[member.end():]}"
        elif kind == 3:  # keys in another order, in one entry or in the whole document
            section = rng.choice(["cables", "channels"])
            entries = list(doc[section])
            if rng.random() < 0.5:
                k = rng.randrange(len(entries))
                entries[k] = _reordered(entries[k])
                yield render({**doc, section: entries})
            else:
                yield render(_reordered(doc))
        elif kind == 4:  # truncated
            yield text[:pos]
        elif kind == 5:  # data after the document
            yield text + rng.choice([" ", "\n", "x", "{}", "]", ",", "\u00e9", text[-40:]])
        elif kind == 6:  # non-ASCII text, inside a string or out of one
            at = rng.choice([m.end() - 1 for m in scalars if m.group().endswith('"')] + [pos])
            yield text[:at] + rng.choice(["\u00e9", "\u2028", "\u00a0", "\ud800"]) + text[at:]
        elif kind == 7:  # a byte order mark
            yield "\ufeff" + text
        elif kind == 8:  # nesting in place of a value: shallow, or deeper than any decoder goes
            member = rng.choice(scalars)
            depth = rng.choice([1, 40, 100_000])
            yield text[:member.start(1)] + "[" * depth + "]" * depth + text[member.end(1):]
        elif kind == 9:  # a comma before a closing bracket: the document's, or any other
            at = rng.choice([closers[-1], rng.choice(closers)])
            yield text[:at] + "," + text[at:]
        elif kind == 10:  # an integer off by one
            member = rng.choice([m for m in scalars if not m.group().endswith('"')])
            value = str(int(member.group(1)) + 1)
            yield text[:member.start(1)] + value + text[member.end(1):]
        else:  # a value too large to size, in the header or anywhere: it prints, or does not
            member = rng.choice(rng.choice([header, scalars]))
            value = rng.choice(["1" + "0" * 4000, "-" + "9" * 4000, "1" + "0" * 5000])
            yield text[:member.start(1)] + value + text[member.end(1):]


class TestMutationCorpus:
    """Seeded mutations of documents in three layouts end exactly as the reference reading does.

    Each mutant is read as ``bytes`` and as ``str``: 6,000 documents in all, 500 of them with
    an integer of 4,001 or 5,001 digits.
    """

    # g > n, m = 1, g = 1 and n = 1, then two shapes whose lists span blocks
    MUTANTS = {(3, 2, 2): 248, (2, 1, 3): 248, (1, 3, 2): 248, (3, 2, 1): 248,
               (5, 5, 41): 4, (3, 345, 1): 4}
    LAYOUTS = {
        "canonical": lambda doc: json.dumps(doc, sort_keys=True, indent=2) + "\n",
        "compact": lambda doc: json.dumps(doc, sort_keys=True, separators=(",", ":")),
        "indent=1": lambda doc: json.dumps(doc, indent=1),
    }

    @pytest.mark.parametrize("shape", sorted(MUTANTS))
    def test_every_mutant_ends_as_the_reference(self, shape):
        assert sum(self.MUTANTS.values()) * len(self.LAYOUTS) * 2 == 6_000
        t = build_network(*shape)
        doc = topology_document(t)
        assert self.LAYOUTS["canonical"](doc).encode() == serialize_topology(t, "json")
        endings = set()
        for seed, (layout, render) in enumerate(self.LAYOUTS.items()):
            rng = random.Random(1000 * seed + sum(shape))
            count = self.MUTANTS[shape]
            for text in _mutants(doc, render, rng, count, seed * count):
                for data in (text, text.encode("utf-8", "surrogatepass")):
                    got = _outcome(data)
                    endings.add(got[0].__name__ if isinstance(got, tuple) else "accepted")
        # a dimension of the params too large to build is over the cap; the block-spanning
        # shapes have too few mutants of that kind to reach one
        over = {"CapacityError"} if count > 4 else set()
        assert endings == {"accepted", "ParseError", "IntegrityError"} | over


class TestDecodedWindows:
    """ASCII bytes are decoded a window at a time, and a value that crosses a window's end
    is scanned again in a wider one: with windows a few characters wide, reads end as the
    reference does."""

    @pytest.mark.parametrize("window", [1, 3, 64])
    def test_narrow_windows_end_as_the_reference(self, w323, monkeypatch, window):
        monkeypatch.setattr(serialize, "_WINDOW", window)
        doc = topology_document(w323)
        rng = random.Random(window)
        for layout, render in TestMutationCorpus.LAYOUTS.items():
            text = render(doc)
            assert _outcome(text.encode()) == w323, layout
            for mutant in _mutants(doc, render, rng, 44, 0):
                _outcome(mutant.encode("utf-8", "surrogatepass"))

    @pytest.mark.parametrize("data", [b"12345", b'"ab\\u00e9cd"', b"[[1, 2], [3, 4]]  "])
    def test_a_value_cut_at_a_window_end_is_read_whole(self, monkeypatch, data):
        monkeypatch.setattr(serialize, "_WINDOW", 2)
        _fails(data, ParseError, r"^\$ must be an object$")


class TestDot:
    def test_degenerate_graph(self):
        dot = serialize_topology(build_network(1, 1, 1), "dot").decode()
        node_lines = [l for l in dot.splitlines() if l.strip() in ("grp0;", "awg0;")]
        assert len(node_lines) == 2
        assert dot.count("->") == 1

    def test_single_router_has_no_interstage_cables(self):
        dot = serialize_topology(build_network(3, 1, 6), "dot").decode()
        assert dot.count('kind="cable"') == 0
        assert dot.count('kind="direct"') == 3

    def test_worked_example_edges(self, w323):
        dot = serialize_topology(w323, "dot").decode()
        assert dot.count('kind="cable"') == 6
        assert 'grp1 -> awg0 [label="l0,l1,l2"' in dot
        assert 'headlabel="in1"' in dot

    def test_partial_wavelength_sets_in_labels(self):
        dot = serialize_topology(build_network(4, 3, 2), "dot").decode()
        assert 'grp3 -> awg0 [label="l0,l3"' in dot

    def test_layered_left_to_right(self, w323):
        dot = serialize_topology(w323, "dot").decode()
        assert "rankdir=LR" in dot
        assert "cluster_groups" in dot and "cluster_awgs" in dot

    def test_cable_list_longer_than_one_chunk(self):
        t = build_network(3, 345, 1)  # 1,035 cables
        chunks = list(_EXPORTS["dot"](t))
        assert len(chunks) > 1
        assert all(c.isascii() and c.endswith(b"\n") for c in chunks)
        assert max(c.count(b"\n") for c in chunks) <= _BLOCK
        dot = b"".join(chunks)
        assert dot == serialize_topology(t, "dot")
        edges = re.findall(
            rb'grp(\d+) -> awg(\d+) \[.*, taillabel="p(\d+)", headlabel="in(\d+)"\];', dot)
        # the wiring law: port b of group a lands on input a of router b
        assert [tuple(map(int, e)) for e in edges] == [
            (a, b, b, a) for a in range(3) for b in range(345)
        ]


@pytest.mark.parametrize("shape", [(3, 2, 3), (3, 345, 1)])
def test_export_and_parse_build_no_cable(shape, monkeypatch):
    def outcomes():
        t = build_network(*shape)  # a fresh value, with no cables cached
        doc = serialize_topology(t, "json")
        tampered = _off_by_one(doc, _entry_spans(doc, "cables")[-1], b"to_input")
        return doc, serialize_topology(t, "dot"), _outcome(doc), _outcome(tampered)

    want = outcomes()
    assert want[2] == build_network(*shape) and want[3][0] is IntegrityError

    def no_cable(self):
        raise AssertionError("Topology.cables was read")

    monkeypatch.setattr(Topology, "cables", property(no_cable))
    with pytest.raises(AssertionError, match="Topology.cables was read"):
        build_network(*shape).cables
    assert outcomes() == want


class TestReportAndCsv:
    def test_report_json_shape(self):
        report = verify_shuffle_equivalence(3, 2, 3)
        doc = json.loads(serialize_report(report))
        assert doc["passed"] is True
        assert doc["permutation_size"] == 18
        assert [c["name"] for c in doc["checks"]] == [
            "oracle-equivalence", "bijectivity", "wavelength-conflicts"
        ]

    def test_tradeoff_csv_frozen(self):
        got = tradeoff_csv(tradeoff_table(2, 12)).decode()
        assert got == (
            "n,m,wavelengths,awg_inputs,awg_outputs,cables,channels\n"
            "1,12,2,2,1,24,24\n"
            "2,6,2,2,2,12,24\n"
            "3,4,3,2,3,8,24\n"
            "4,3,4,2,4,6,24\n"
            "6,2,6,2,6,4,24\n"
            "12,1,12,2,12,0,24\n"
        )


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        target = tmp_path / "out.json"
        write_bytes(str(target), b"payload")
        assert target.read_bytes() == b"payload"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(b"old")
        write_bytes(str(target), b"new")
        assert target.read_bytes() == b"new"

    def test_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.json"
        write_bytes(str(target), b"x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_writes_chunks_in_order(self, tmp_path):
        target = tmp_path / "out.json"
        write_bytes(str(target), iter([b"pay", b"", b"load"]))
        assert target.read_bytes() == b"payload"

    def test_failing_chunk_source_leaves_target_and_no_staged_file(self, tmp_path):
        def chunks():
            yield b"new"
            raise ValueError("no more chunks")

        target = tmp_path / "out.json"
        target.write_bytes(b"old")
        with pytest.raises(ValueError, match="no more chunks"):
            write_bytes(str(target), chunks())
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failing_cleanup_still_raises_the_chunk_source_error(self, tmp_path, monkeypatch):
        # an OSError while removing the staged file does not hide why the write failed
        def chunks():
            yield b"new"
            raise ValueError("no more chunks")

        def unlink(path):
            raise OSError(13, "cannot remove", path)

        monkeypatch.setattr(os, "unlink", unlink)
        target = tmp_path / "out.json"
        target.write_bytes(b"old")
        with pytest.raises(ValueError, match="no more chunks"):
            write_bytes(str(target), chunks())
        assert target.read_bytes() == b"old"

    def test_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        # setting the umask, even to read it, changes the mode of a file
        # that another thread creates meanwhile
        def umask(mask):
            raise AssertionError("the umask was set")

        monkeypatch.setattr(os, "umask", umask)
        target = tmp_path / "out.json"
        write_bytes(str(target), b"payload")
        assert target.read_bytes() == b"payload"

    def test_new_file_gets_the_mode_a_plain_open_gives(self, tmp_path):
        # 0o666 less the umask, not mkstemp's owner-only 0o600
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            target = tmp_path / f"out-{umask:03o}.json"
            previous = os.umask(umask)
            try:
                write_bytes(str(target), b"x")
            finally:
                os.umask(previous)
            assert stat.S_IMODE(target.stat().st_mode) == mode
