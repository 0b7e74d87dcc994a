"""Serialization of enumeration results: poset JSON and Graphviz DOT."""

from __future__ import annotations

import json


def poset_to_json(graph):
    data = {
        "params": {"n": graph.params[0], "m": graph.params[1], "k": graph.params[2]},
        "classes": [
            {"canonical": c.rep.text(), "members": c.members} for c in graph.classes
        ],
        "edges": sorted(list(e) for e in (graph.edges or set())),
        "reducedEdges": sorted(list(e) for e in (graph.reduced or set())),
        "groups": [
            {"label": g.label, "classIds": sorted(g.class_ids)}
            for g in (graph.groups or [])
        ],
    }
    return data


def dump_poset(graph, path):
    with open(path, "w") as fh:
        json.dump(poset_to_json(graph), fh, indent=2)
        fh.write("\n")


def poset_to_dot(graph):
    """Hasse diagram: reduced edges only, one cluster per localization group."""
    lines = ["digraph mclex {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    grouped = set()
    groups = graph.groups or []
    for gi, g in enumerate(groups):
        lines.append(f"  subgraph cluster_{gi} {{")
        lines.append(f'    label="{g.label}";')
        for cid in sorted(g.class_ids):
            node = graph.classes[cid]
            label = "\\n".join(node.rep.grid_lines())
            lines.append(f'    c{cid} [label="{label}"];')
            grouped.add(cid)
        lines.append("  }")
    for node in graph.classes:
        if node.id not in grouped:
            label = "\\n".join(node.rep.grid_lines())
            lines.append(f'  c{node.id} [label="{label}"];')
    for i, j in sorted(graph.reduced or set()):
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_dot(graph, path):
    with open(path, "w") as fh:
        fh.write(poset_to_dot(graph))
