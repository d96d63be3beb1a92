"""Property tests of the exit-code contract of `blinkdet eval` on structurally mutated files.

Each example applies a few mutations (replace a value, delete or add an
object field or array element, duplicate an element) at random nodes of the
seed-7 ground-truth and prediction documents, writes both, and runs
`main(["eval", ...])`. The run must return 0 or 2 without raising, and a
data error must name a JSON path that exists in the mutated document.

The examples are derived from the sources (`derandomize=True`), so a run is
deterministic, and no example database is written (`database=None`).
Hypothesis still caches the literals it reads from the sources under
`.hypothesis/`, which `.gitignore` lists.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from blinkdet.cli_io import Config, generate_scenario
from blinkdet.cli_io.cli import EXIT_DATA, EXIT_OK, main
from blinkdet.cli_io.jsonio import annotations_to_dict, predictions_to_dict

_SCENARIO = generate_scenario(Config(), 7)
_VIDEO = _SCENARIO.videos[0]
_TEXTS = {
    "gt": json.dumps(annotations_to_dict(list(_SCENARIO.videos))),
    "pred": json.dumps(predictions_to_dict(list(_SCENARIO.predictions["noisy"]), _VIDEO.width, _VIDEO.height)),
}

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats(0, 1),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 80), st.floats(-5, 300)), max_size=5),
    st.dictionaries(st.sampled_from(["start", "end", "confidence", "x"]), st.integers(-2, 80), max_size=3),
)
# field names of both schemas plus one unknown name
_KEYS = st.sampled_from(["videos", "video_id", "num_frames", "width", "instances", "presence",
                         "boxes", "blinks", "face_scores", "blink_intervals", "start", "extra"])


def _mutate(data, doc):
    """Apply one mutation at a node a random walk of random depth reaches from the root; returns the new root."""
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 7))):
        if not (isinstance(node, (dict, list)) and node):
            break
        parent, key = node, data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add", "duplicate"]))
    if action == "add" and isinstance(node, dict):
        node[data.draw(_KEYS)] = data.draw(_JUNK)
    elif action == "add" and isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), data.draw(_JUNK))
    elif action == "delete" and parent is not None:
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(node)))
    elif parent is None:
        return data.draw(_JUNK)
    else:
        parent[key] = data.draw(_JUNK)
    return doc


def _resolves(doc, json_path: str) -> bool:
    """True when `json_path` (`.key`, `[index]`, or `:key` after a file name) leads to a node of doc."""
    if not re.fullmatch(r"(?:[.:]\w+|\[\d+\])*", json_path):
        return False
    node = doc
    for key, index in re.findall(r"[.:](\w+)|\[(\d+)\]", json_path):
        if key and isinstance(node, dict) and key in node:
            node = node[key]
        elif index and isinstance(node, list) and int(index) < len(node):
            node = node[int(index)]
        else:
            return False
    return True


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_eval_on_mutated_files_exits_0_or_2_naming_a_present_path(data):
    docs = {name: json.loads(text) for name, text in _TEXTS.items()}
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(docs)))
        docs[name] = _mutate(data, docs[name])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            paths[name].write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["eval", "--gt", str(paths["gt"]), "--pred", str(paths["pred"])])
    assert rc in (EXIT_OK, EXIT_DATA)
    if rc == EXIT_DATA:
        message = err.getvalue()
        assert message.startswith("data error: "), message
        located = message[len("data error: "):]
        name = next((n for n, p in paths.items() if located.startswith(str(p))), None)
        assert name is not None, message
        json_path = located[len(str(paths[name])):].partition(": ")[0]
        assert _resolves(docs[name], json_path), message
