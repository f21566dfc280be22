import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scdebug.annotator import annotate
from scdebug.checker import check_all
from scdebug.dsl import ParseError, parse_sc
from scdebug.model import Node, Statechart, Transition
from scdebug.report import (
    ReportBundle,
    _json,
    annotation_bundle,
    export_dot,
    render_json,
    render_text,
)
from scdebug.synthesizer import synthesize

from conftest import read

# The published conflict block this tool's output is held against.
GOLDEN_BLOCK = """\
Conflict in SD1: Object Coffee-UI
 statevector after  "Insert coin"        = <T,F,T,1,none> [Msg 2]
 statevector before "Request Selection"  = <T,F,F,1,none> [Msg 3]
  conflict in variable "CoffeeTypeSelected"
  conflict occurred as consequence of unification of
   statevector after "Display Ready Light" = <F,F,T,0,none> [Msg 1]
   statevector after "Display Ready Light" = <F,F,T,0,none> [Msg 11]
   statevector after  "Take coin"          = <F,F,T,0,none> [Msg 10]
"""


def normalize(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = re.sub(r"\s+", " ", line).strip()
        if line:
            out.append(line)
    return out


@pytest.fixture(scope="module")
def conflict_bundle(sd1, coffee_dt_unfixed):
    return annotation_bundle([annotate(sd1, coffee_dt_unfixed)])


class TestText:
    def test_matches_published_block(self, conflict_bundle):
        rendered = normalize(render_text(conflict_bundle))
        golden = normalize(GOLDEN_BLOCK)
        # every golden line appears, in order (whitespace-insensitive)
        it = iter(rendered)
        for want in golden:
            assert want in it, f"missing or out of order: {want!r}"

    def test_conflict_values(self, conflict_bundle):
        text = render_text(conflict_bundle)
        assert "<T,F,T,1,none>" in text and "<T,F,F,1,none>" in text

    def test_empty_bundle(self, sd1, coffee_dt):
        bundle = annotation_bundle([annotate(sd1, coffee_dt)])
        text = render_text(bundle)
        assert text.startswith("No conflicts found.")
        assert "1 sequence diagram(s) annotated" in text
        assert "0 conflict(s)" in text

    def test_repair_rendered_as_diff(self, stepper_sd, stepper_dt):
        chart = parse_sc(read("stepper_refined/M.sc"))
        records = check_all(stepper_dt, {"M": chart}, [stepper_sd])
        text = render_text(ReportBundle(checks=tuple(records), sds=1))
        assert "+ msg Env -> M : e3" in text
        assert "repair with 1 edit(s)" in text

    def test_every_conflict_rendered_once(self, conflict_bundle):
        text = render_text(conflict_bundle)
        assert text.count("Conflict in SD1") == 1


class TestJson:
    def test_derivation_order(self, conflict_bundle):
        text = render_json(conflict_bundle)
        doc = json.loads(text)
        derivation = doc["conflicts"][0]["derivation"]
        assert [d["id"] for d in derivation] == [1, 11, 10]
        assert all(d["vector"] == "<F,F,T,0,none>" for d in derivation)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_empty(self, sd1, coffee_dt):
        doc = json.loads(render_json(annotation_bundle([annotate(sd1, coffee_dt)])))
        assert doc["conflicts"] == []

    def test_byte_identical(self, sd1, coffee_dt_unfixed):
        a = render_json(annotation_bundle([annotate(sd1, coffee_dt_unfixed)]))
        b = render_json(annotation_bundle([annotate(sd1, coffee_dt_unfixed)]))
        assert a == b

    def test_validates_against_published_schema(self, conflict_bundle, stepper_sd, stepper_dt):
        schema = json.loads(
            (Path(__file__).parent.parent / "docs/report-schema.json").read_text()
        )
        chart = parse_sc(read("stepper_refined/M.sc"))
        checked = ReportBundle(checks=tuple(check_all(stepper_dt, {"M": chart}, [stepper_sd])), sds=1)
        for bundle in (conflict_bundle, checked):
            doc = json.loads(render_json(bundle))
            _validate(doc, schema, schema)


# Report values: every type the JSON writer takes, empty containers at any
# depth, and text with quotes, backslashes, control and non-ASCII characters.
_texts = st.text() | st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e4\u2028\ud800\U0001f600 a'))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
    | _texts | st.sampled_from([[], (), {}]),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_texts, inner),
    max_leaves=40,
)


class TestJsonWriter:
    @given(_json_values)
    def test_matches_json_dumps(self, value):
        assert _json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, {"a": 1, 2: "b"}, {"a": [[], {"b": 0.0}]}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            _json(value)


def _validate(value, schema, root, path="$"):
    """Minimal draft-07 structural validator for the shipped schema."""
    if "$ref" in schema:
        ref = root
        for part in schema["$ref"].lstrip("#/").split("/"):
            ref = ref[part]
        return _validate(value, ref, root, path)
    if "const" in schema:
        assert value == schema["const"], f"{path}: expected {schema['const']!r}"
        return
    if "enum" in schema:
        assert value in schema["enum"], f"{path}: {value!r} not in {schema['enum']}"
        return
    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        mapping = {
            "object": dict,
            "array": list,
            "string": str,
            "integer": int,
            "null": type(None),
        }
        assert any(
            isinstance(value, mapping[t]) and not (t == "integer" and isinstance(value, bool))
            for t in types
        ), f"{path}: {type(value).__name__} not in {types}"
    if isinstance(value, dict) and "properties" in schema:
        for req in schema.get("required", []):
            assert req in value, f"{path}: missing {req!r}"
        for key, sub in schema["properties"].items():
            if key in value:
                _validate(value[key], sub, root, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], root, f"{path}[{i}]")
    if isinstance(value, int) and "minimum" in schema and not isinstance(value, bool):
        assert value >= schema["minimum"], f"{path}: {value} < {schema['minimum']}"


class TestDot:
    def test_composite_cluster(self, sd1, sd2, coffee_dt):
        charts, _ = synthesize(coffee_dt, [sd1, sd2])
        dot = export_dot(charts["Coffee-UI"])
        assert dot.startswith('digraph "Coffee-UI" {')
        assert "subgraph" in dot and "cluster_" in dot
        assert '[shape=point]' in dot
        assert 'label="Insert coin / Request Selection"' in dot

    def test_single_state(self):
        chart = parse_sc("statechart M\ninitial Only\nstate Only")
        dot = export_dot(chart)
        assert '"Only"' in dot and "shape=point" in dot

    def test_composite_with_siblings(self):
        # One composite holding a three-state chain, two simple siblings.
        chart = parse_sc(
            "statechart Demo\ninitial A\n"
            "state A {\n initial A1\n state A1\n state A2\n state A3\n"
            " A1 -> A2 : x\n A2 -> A3 : y\n A3 -> B : leave\n}\n"
            "state B\nstate C\nB -> C : z\nC -> A : enter"
        )
        dot = export_dot(chart)
        assert dot.count("subgraph") == 1
        assert '"cluster_A"' in dot
        assert dot.count("shape=point") == 2  # top level and inside the cluster
        assert 'label="z"' in dot
        # entering the composite lands on its initial node
        assert '"C" -> "A1"' in dot and 'lhead="cluster_A"' in dot

    def test_composite_endpoints_at_any_depth(self):
        # G1 enters at G2, which enters at C.  Edges into and out of a
        # composite outside their own scope go to and from its entry node,
        # clipped at its cluster, so every endpoint is a declared node.
        chart = parse_sc(
            "statechart M\ninitial G1\nstate A\n"
            "state G1 {\n initial G2\n"
            " state G2 {\n  initial C\n  state C\n  state D\n  C -> D : y\n  C -> A : reset / r\n }\n"
            " state B\n D -> B : z\n}\n"
            "A -> G1 : go\nG1 -> A : reset / r\nB -> G2 : back [x = T]\n"
        )
        dot = export_dot(chart)
        declared = set(re.findall(r'^\s*"([^"]+)" \[shape=', dot, re.M))
        edges = re.findall(r'^\s*"([^"]+)" -> "([^"]+)"', dot, re.M)
        assert len(edges) == 9  # three initial points, six transitions
        assert {end for edge in edges for end in edge} <= declared
        assert '"A" -> "C" [label="go", lhead="cluster_G1"];' in dot
        assert '"C" -> "A" [label="reset / r", ltail="cluster_G1"];' in dot
        assert '"B" -> "C" [label="back [x = T]", lhead="cluster_G2"];' in dot

    def test_backslash_and_quote_are_escaped(self):
        # A label ending in a backslash once ended its string early.  The
        # reader rejects such labels, but charts built in code may hold them.
        chart = Statechart("M", (Node("A"),), "A", (Transition("A", "A", "go\\"),
                                                   Transition("A", "A", 'say "hi"', None, ("x\\y",))))
        dot = export_dot(chart)
        assert '"A" -> "A" [label="go\\\\"];' in dot
        assert '"A" -> "A" [label="say \\"hi\\" / x\\\\y"];' in dot
        for line in dot.splitlines():  # every string closes on its line
            assert len(re.findall(r'(?<!\\)(?:\\\\)*"', line)) % 2 == 0, line

    @pytest.mark.parametrize("line", ["A -> A : go\\", 'A -> A : say "hi" / x\\y'])
    def test_backslash_and_quote_labels_do_not_parse(self, line):
        with pytest.raises(ParseError) as exc:
            parse_sc(f"statechart M\ninitial A\nstate A\n{line}\n", "m.sc")
        assert str(exc.value).startswith("m.sc:4:1: cannot parse transition")

    def test_cycle_back_to_initial(self, sd1, coffee_dt):
        charts, _ = synthesize(coffee_dt, [sd1])
        dot = export_dot(charts["Coffee-UI"])
        assert "Release coin" in dot and "Take coin" in dot

    def test_deterministic(self, sd1, coffee_dt):
        charts, _ = synthesize(coffee_dt, [sd1])
        assert export_dot(charts["User"]) == export_dot(charts["User"])


def test_in_operator_subsequence_helper():
    # `in iterator` consumes: used for the in-order golden comparison above.
    it = iter(["a", "b", "c"])
    assert "a" in it and "c" in it and "b" not in it
