"""A JSON network whose sections or entries have the wrong JSON type is
an input error everywhere it is read: a ``FormatError`` from the loader,
a 400 from every POST endpoint, and exit code 3 from ``aalwines`` and
``aalwines lint`` (never a traceback, a 500, or a run on a half-read
network)."""

import copy
import json

import pytest

from repro.cli import main
from repro.datasets.example import build_example_network
from repro.errors import FormatError
from repro.io.json_format import network_from_json, network_to_json
from repro.service.core import ServiceCore, ServiceRequest

PHI0 = "<ip> [.#v0] .* [v3#.] <ip> 0"

#: (path into the example network's JSON, wrong value).
CASES = [
    (("name",), 5),
    (("name",), ["running-example"]),
    (("routers",), None),
    (("routers",), 5),
    (("routers",), True),
    (("routers",), [1]),
    (("links",), None),
    (("links",), 5),
    (("links",), "e0"),
    (("links",), [1]),
    (("labels",), None),
    (("labels",), 7),
    (("labels",), "ip"),
    (("labels",), [1]),
    (("routing",), None),
    (("routing",), 5),
    (("routing",), "e0"),
    (("routing",), [1]),
    (("links", 0, "from"), 5),
    (("links", 0, "weight"), "heavy"),
    (("routing", 0, "label"), 5),
    (("routing", 0, "ops"), 5),
    (("routing", 0, "ops"), [1]),
]
IDS = [".".join(map(str, path)) + "=" + json.dumps(value) for path, value in CASES]


def broken_network(path, value):
    document = json.loads(network_to_json(build_example_network()))
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)
    return document


@pytest.mark.parametrize("path, value", CASES, ids=IDS)
def test_loader_raises_format_error(path, value):
    with pytest.raises(FormatError):
        network_from_json(json.dumps(broken_network(path, value)))


@pytest.mark.parametrize("endpoint", ["/verify", "/lint", "/jobs"])
@pytest.mark.parametrize("path, value", CASES, ids=IDS)
def test_http_answers_400(endpoint, path, value):
    core = ServiceCore()
    body = {"network": broken_network(path, value), "query": PHI0}
    response = core.handle(
        ServiceRequest("POST", endpoint, body=json.dumps(body).encode("utf-8"))
    )
    assert response.status == 400, response.body
    assert core.jobs.list() == []


@pytest.mark.parametrize("path, value", CASES, ids=IDS)
def test_cli_verify_exits_3(tmp_path, capsys, path, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(broken_network(path, value)))
    assert main(["--network", str(bad), "--query", PHI0]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", CASES, ids=IDS)
def test_cli_lint_exits_3(tmp_path, capsys, path, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(broken_network(path, value)))
    assert main(["lint", "--network", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


def test_the_unbroken_network_still_loads(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(network_to_json(build_example_network()))
    assert main(["--network", str(good), "--query", PHI0]) == 0
    assert main(["lint", "--network", str(good)]) == 1  # the DP006 warning
