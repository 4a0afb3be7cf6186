"""A single-file JSON network format.

Besides the two-file XML format of Appendix A, the AalWiNes ecosystem
uses a JSON representation of a whole network (topology, coordinates
and routing together); this module provides the equivalent for this
library. The format is self-describing::

    {
      "name": "...",
      "routers": [{"name": "v0", "lat": 46.5, "lng": 7.3}, ...],
      "links": [{"name": "e1", "from": "v0", "to": "v2",
                 "from_interface": "e1", "to_interface": "e1",
                 "weight": 1}, ...],
      "routing": [{"in_link": "e1", "label": "s20", "priority": 1,
                   "out_link": "e4", "ops": ["swap(s21)"]}, ...]
    }

Routing entries with the same (in_link, label, priority) form one
traffic-engineering group, exactly like the table of Figure 1b.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.errors import FormatError
from repro.model.builder import NetworkBuilder
from repro.model.network import MplsNetwork
from repro.model.trace import Trace


def network_to_json(network: MplsNetwork) -> str:
    """Serialize a network to the JSON format."""
    topology = network.topology
    routers: List[Dict[str, Any]] = []
    for router in topology.routers:
        entry: Dict[str, Any] = {"name": router.name}
        if router.coordinates is not None:
            entry["lat"] = router.coordinates.latitude
            entry["lng"] = router.coordinates.longitude
        routers.append(entry)
    links = []
    for link in topology.links:
        link_entry: Dict[str, Any] = {
            "name": link.name,
            "from": link.source.name,
            "to": link.target.name,
            "from_interface": link.source_interface,
            "to_interface": link.target_interface,
            "weight": link.weight,
        }
        # Emitted only when set, so networks without probabilities
        # serialize byte-identically to previous releases.
        if link.failure_probability is not None:
            link_entry["failure_probability"] = link.failure_probability
        links.append(link_entry)
    routing = []
    for in_link, label, groups in network.routing.items():
        for priority, group in enumerate(groups, start=1):
            for entry in group:
                ops = [str(op) for op in entry.operations]
                routing.append(
                    {
                        "in_link": in_link.name,
                        "label": str(label),
                        "priority": priority,
                        "out_link": entry.out_link.name,
                        "ops": ops,
                    }
                )
    payload = {
        "name": network.name,
        "routers": routers,
        "links": links,
        # The full label universe L (Definition 2): labels a network
        # *knows* exceed the ones its rules mention, and queries may
        # reference any of them.
        "labels": [str(label) for label in network.labels],
        "routing": routing,
    }
    return json.dumps(payload, indent=2) + "\n"


def _entries(
    payload: Dict[str, Any], section: str, kind: type, texts: Tuple[str, ...] = ()
) -> List[Any]:
    """The list under ``section`` (empty when absent); a section that is
    not a list, an entry that is not a ``kind``, or an entry field named
    in ``texts`` that is not text is a :class:`FormatError`."""
    entries = payload.get(section, [])
    if not isinstance(entries, list):
        raise FormatError(f"network JSON section {section!r} must be a list")
    for entry in entries:
        if not isinstance(entry, kind) or any(
            not isinstance(entry[name], str) for name in texts if name in entry
        ):
            raise FormatError(
                f"malformed entry in network JSON section {section!r}: "
                f"{json.dumps(entry)[:60]}"
            )
    return entries


def network_from_json(text: str) -> MplsNetwork:
    """Parse the JSON format into a network.

    A missing section, or a section, entry or field of the wrong JSON
    type, is a :class:`FormatError`.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise FormatError(f"malformed network JSON: {error}") from error
    if not isinstance(payload, dict):
        raise FormatError("network JSON must be an object")
    for section in ("name", "routers", "links", "routing"):
        if section not in payload:
            raise FormatError(f"network JSON lacks the {section!r} section")
    if not isinstance(payload["name"], str):
        raise FormatError("network JSON 'name' must be text")
    builder = NetworkBuilder(payload["name"])
    for router in _entries(payload, "routers", dict, ("name",)):
        if "name" not in router:
            raise FormatError("router entry without a name")
        builder.router(router["name"], router.get("lat"), router.get("lng"))
    for link in _entries(payload, "links", dict, ("name", "from", "to")):
        raw_probability = link.get("failure_probability")
        if raw_probability is not None:
            if isinstance(raw_probability, bool) or not isinstance(
                raw_probability, (int, float)
            ):
                raise FormatError(
                    f"link {link.get('name')!r}: failure_probability must be "
                    f"a number, got {raw_probability!r}"
                )
            raw_probability = float(raw_probability)
        try:
            weight = int(link.get("weight", 1))
        except (TypeError, ValueError):
            raise FormatError(
                f"link {link.get('name')!r}: weight {link.get('weight')!r} "
                "is not an integer"
            ) from None
        try:
            builder.link(
                link["name"],
                link["from"],
                link["to"],
                source_interface=link.get("from_interface"),
                target_interface=link.get("to_interface"),
                weight=weight,
                failure_probability=raw_probability,
            )
        except KeyError as error:
            raise FormatError(f"link entry lacks {error}") from None
    for label_text in _entries(payload, "labels", str):
        builder.label(label_text)
    for rule in _entries(
        payload, "routing", dict, ("in_link", "label", "out_link")
    ):
        try:
            priority = int(rule.get("priority", 1))
        except (TypeError, ValueError):
            raise FormatError(
                f"routing entry τ({rule.get('in_link')}, "
                f"{rule.get('label')}): priority "
                f"{rule.get('priority')!r} is not an integer"
            ) from None
        ops = rule.get("ops", [])
        if not isinstance(ops, list) or not all(isinstance(op, str) for op in ops):
            raise FormatError(
                f"routing entry {json.dumps(rule)[:60]}: ops must be a list of strings"
            )
        try:
            builder.rule(
                rule["in_link"],
                rule["label"],
                rule["out_link"],
                " ∘ ".join(ops),
                priority=priority,
            )
        except KeyError as error:
            raise FormatError(f"routing entry lacks {error}") from None
    return builder.build()


def write_network_json(network: MplsNetwork, path: str) -> None:
    """Write a network to a single JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(network_to_json(network))


def read_network_json(path: str) -> MplsNetwork:
    """Read a network from a single JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return network_from_json(handle.read())


def trace_steps(trace: Trace) -> List[Dict[str, Any]]:
    """A witness trace as the JSON step list the GUI renders."""
    return [
        {
            "link": step.link.name,
            "from": step.link.source.name,
            "to": step.link.target.name,
            "header": [str(label) for label in step.header],
        }
        for step in trace
    ]


def trace_to_json(trace: Trace) -> str:
    """Serialize a witness trace (the GUI's visualization payload)."""
    return json.dumps({"trace": trace_steps(trace)}, indent=2) + "\n"
