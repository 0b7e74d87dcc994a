"""The four benchmark workloads: inputs, requests and output checks.

A workload's setup builds its inputs from the seed; its run makes requests,
each one or a few calls into mclex's public API that `call` times from
outside; its check judges each request's output as soon as the clock
stops, and may keep in `kept` what a later check needs.
mclex functions are looked up on their modules at call time, so that a
tracer installed after import sees every call.

Why these workloads (times are for the pure-Python backend on 2 cores):
- classify: `mclex enumerate` without --out on (3,3,2) and (4,3,1), about
  8 s.  Signatures and candidate generation do the work; there are no
  Hasse edges and no localization.  The two windows together use all six
  signature probes.
- hasse: compute_edges and transitive_reduction over the pinned class
  representatives of the same windows (42 and 48 classes, 1,722 + 2,256
  decides), about 6 s.  Many small closure goals and no signatures.
- localize: `mclex enumerate 3 6 1 --out --dot --subposet-loc A` for all
  four anchors, about 17 s.  Decides and signatures on localized matrices,
  whose extra variable makes the universes large.
- certify: a closed loop with one client running CERTIFY_QUERIES seeded
  implication queries, each verdict-only, then recorded, then a JSON round
  trip of the tableaux and their replay, about 25 s.  The only workload on
  the recorded saturation path and tableau extraction.  The queries are a
  stratified draw that matches a uniform draw over the union of the two
  pools' proper candidates (4,629 of (3,4,2), 1,375 of (4,4,1)): each
  pool gets queries in proportion to its size, and within a pool 80% of
  the queries have one hypothesis and one goal, 10% two hypotheses and
  10% two goals, the matrices of a query being distinct and from that
  pool.  Fixed strata leave only the drawn matrices to vary with the
  seed.  Query costs are heavy tailed (single pairs measured on 2 cores:
  (3,4,2) mean 44 ms, p95 145 ms; (4,4,1) mean 6 ms, p95 16 ms), so the
  sample is as large as the run time allows: with fewer queries the draw
  alone moves p95 by more than the machine does.
"""

from __future__ import annotations

import json
import random

import mclex
import mclex.closure
import mclex.export
from mclex.degeneracy import DegeneracyClass

import pinned
from stats import digest, order_failures

WINDOWS = ((3, 3, 2), (4, 3, 1))
LOC_WINDOW = (3, 6, 1)
POOLS = ((3, 4, 2), (4, 4, 1))
# queries per certify unit, and their (hypotheses, goals, share) strata
CERTIFY_QUERIES = 800
SHAPES = ((1, 1, 0.8), (2, 1, 0.1), (1, 2, 0.1))


def _label(prefix, window):
    return prefix + " " + " ".join(map(str, window))


def _compare(label, summary):
    """Failures against the values pinned for this request's output."""
    out = []
    for key, want in pinned.SEED.get(label, {}).items():
        if summary.get(key) != want:
            out.append(f"{key}: seed value {want!r}, got {summary.get(key)!r}")
    return out


def _class_summary(graph):
    return [[c.rep.text(), c.kind.value, c.members] for c in graph.classes]


# --- classify ----------------------------------------------------------------


def setup_classify(seed):
    windows = list(WINDOWS)
    random.Random(seed).shuffle(windows)
    return {"windows": windows}, []


def run_classify(inputs, call):
    for window in inputs["windows"]:
        call(_label("classify", window), mclex.classify, *window)


def check_classify(inputs, label, graph, kept):
    window = tuple(int(x) for x in label.split()[1:])
    summary = {"classes": len(graph.classes), "digest": digest(_class_summary(graph))}
    out = []
    if summary["classes"] != pinned.FROZEN_CLASSES[window]:
        out.append(f"class count {summary['classes']}, acceptance value "
                   f"{pinned.FROZEN_CLASSES[window]}")
    kinds = sorted(c.kind.value for c in graph.classes if c.kind is not DegeneracyClass.PROPER)
    if kinds != ["anti-trivial", "trivial"]:
        out.append(f"degenerate classes {kinds}")
    return out + _compare(label, summary), summary


# --- hasse -------------------------------------------------------------------


def setup_hasse(seed):
    """The pinned representatives, each window in a seeded order."""
    rng = random.Random(seed)
    windows = list(WINDOWS)
    rng.shuffle(windows)
    inputs = {"windows": windows, "perm": {}, "reps": {}}
    failures = []
    for window in windows:
        texts = pinned.REPS[window]
        if len(texts) != pinned.FROZEN_CLASSES[window]:
            failures.append(f"{window}: {len(texts)} pinned representatives")
        perm = rng.sample(range(len(texts)), len(texts))
        inputs["perm"][window] = perm
        inputs["reps"][window] = [mclex.parse_matrix(texts[p]) for p in perm]
    return inputs, failures


def hasse_order(reps):
    edges = mclex.compute_edges(reps)
    return edges, mclex.transitive_reduction(len(reps), edges)


def run_hasse(inputs, call):
    for window in inputs["windows"]:
        call(_label("order", window), hasse_order, inputs["reps"][window])


def check_hasse(inputs, label, output, kept):
    window = tuple(int(x) for x in label.split()[1:])
    perm = inputs["perm"][window]
    edges = {(perm[i], perm[j]) for i, j in output[0]}
    reduced = {(perm[i], perm[j]) for i, j in output[1]}
    texts = pinned.REPS[window]
    out = order_failures(len(texts), edges, reduced,
                         bottom=texts.index("| 1"), top=texts.index("| *"))
    summary = {"edges": len(edges), "reduced": len(reduced),
               "digest": digest([sorted(edges), sorted(reduced)])}
    return out + _compare(label, summary), summary


# --- localize ----------------------------------------------------------------


def setup_localize(seed):
    anchors = sorted(mclex.ANCHORS)
    random.Random(seed).shuffle(anchors)
    return {"anchors": anchors}, []


def run_localize(inputs, call):
    graph = call(_label("enumerate", LOC_WINDOW), mclex.classify, *LOC_WINDOW,
                 with_order=True, with_groups=True)
    call("poset_to_json", lambda: json.dumps(mclex.export.poset_to_json(graph), indent=2))
    call("poset_to_dot", mclex.export.poset_to_dot, graph)
    for name in inputs["anchors"]:
        call("subposet " + name, mclex.subposet_by_localization,
             graph.classes, mclex.ANCHORS[name])


def check_localize(inputs, label, output, kept):
    if label.startswith("enumerate"):
        kept["graph"] = output  # the later checks compare with it
    graph = kept["graph"]
    if output is graph:
        summary = {"classes": len(graph.classes), "edges": len(graph.edges),
                   "reduced": len(graph.reduced), "groups": len(graph.groups)}
        out = order_failures(len(graph.classes), graph.edges, graph.reduced)
        if summary["groups"] != pinned.FROZEN_GROUPS_3_6_1:
            out.append(f"{summary['groups']} groups, acceptance value "
                       f"{pinned.FROZEN_GROUPS_3_6_1}")
    elif label == "poset_to_json":
        data = json.loads(output)
        summary = {"digest": digest(data)}
        out = []
        if (len(data["classes"]), len(data["edges"]), len(data["groups"])) != (
                len(graph.classes), len(graph.edges), len(graph.groups)):
            out.append("poset JSON disagrees with the graph")
    elif label == "poset_to_dot":
        summary = {"digest": digest(output)}
        out = []
        if output.count(" -> ") != len(graph.reduced):
            out.append("DOT edge count differs from the reduced edges")
    else:
        name = label.split()[1]
        nodes, local, reduced = output
        ids = [c.id for c in nodes]
        group = [sorted(g.class_ids) for g in graph.groups if g.label == name]
        summary = {"classes": len(nodes), "edges": len(local), "reduced": len(reduced),
                   "digest": digest([ids, sorted(local), sorted(reduced)])}
        out = order_failures(len(nodes), local, reduced)
        # the subposet and the grouping reach loc-equality by different paths
        if sorted(ids) != (group[0] if group else []):
            out.append("subposet classes differ from the anchor's group")
        induced = {(a, b) for a in range(len(ids)) for b in range(len(ids))
                   if (ids[a], ids[b]) in graph.edges}
        if set(local) != induced:
            out.append("subposet edges differ from the window's edges")
    return out + _compare(label, summary), summary


# --- certify -----------------------------------------------------------------


def proper_pool(window):
    return [rows for rows in mclex.candidate_stream(*window)
            if mclex.degeneracy_class(mclex.matrix(rows)) is DegeneracyClass.PROPER]


def certify_strata(pool_sizes, total=CERTIFY_QUERIES):
    """(queries, pool, hypotheses, goals) per stratum: pools in proportion
    to their sizes, shapes by their shares."""
    everything = sum(pool_sizes.values())
    strata = []
    for window, size in pool_sizes.items():
        in_pool = round(total * size / everything)
        for hyps, goals, share in SHAPES:
            strata.append((round(in_pool * share), window, hyps, goals))
    return strata


def setup_certify(seed):
    failures = []
    pools = {}
    for window in POOLS:
        pools[window] = proper_pool(window)
        want = pinned.SEED_POOL_SIZES[window]
        if len(pools[window]) != want:
            failures.append(f"pool {window}: {len(pools[window])} proper candidates, "
                            f"seed value {want}")
    rng = random.Random(seed)
    queries = []
    for count, window, hyps, goals in certify_strata({w: len(p) for w, p in pools.items()}):
        for _ in range(count):
            drawn = [mclex.matrix(rows) for rows in rng.sample(pools[window], hyps + goals)]
            queries.append((drawn[:hyps], drawn[hyps:]))
    rng.shuffle(queries)
    return {"queries": queries}, failures


def certify_query(S, U):
    verdict, _ = mclex.decide(S, U)
    recorded, tableaux = mclex.decide(S, U, record=True)
    texts = [json.dumps(mclex.closure.tableau_to_json(t)) for t in tableaux]
    replayed = [mclex.closure.tableau_from_json(json.loads(t)) for t in texts]
    replays = [mclex.verify_tableau(t) for t in replayed]
    return verdict, recorded, tableaux, replayed, replays


def run_certify(inputs, call):
    for i, (S, U) in enumerate(inputs["queries"]):
        call(f"query {i}", certify_query, S, U)


def check_certify(inputs, label, output, kept):
    verdict, recorded, tableaux, replayed, replays = output
    S, U = inputs["queries"][int(label.split()[1])]
    out = []
    if recorded != verdict:
        out.append("recorded verdict differs from the verdict-only one")
    if len(tableaux) != len(U):
        out.append(f"{len(tableaux)} tableaux for {len(U)} goals")
    if recorded != all(t.verdict for t in tableaux):
        out.append("tableau verdicts disagree with the recorded verdict")
    if any(not ok for ok, _bad in replays):
        out.append("a tableau does not replay")
    if replayed != tableaux:
        out.append("JSON round trip changed a tableau")
    summary = {"lhs": [M.text() for M in S], "rhs": [N.text() for N in U],
               "verdict": verdict}
    return out, summary


WORKLOADS = {
    "classify": (setup_classify, run_classify, check_classify),
    "hasse": (setup_hasse, run_hasse, check_hasse),
    "localize": (setup_localize, run_localize, check_localize),
    "certify": (setup_certify, run_certify, check_certify),
}
