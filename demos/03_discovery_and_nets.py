"""
Process discovery and Petri net semantics
=========================================

The built-in miner recursively cuts the directly-follows graph into
exclusive / sequential / parallel / loop blocks and compiles the result
to a Petri net. The net is a value with explicit initial and final
markings; its language is everything it can replay. Every search runs
on the net's compiled form, ``net.compiled``, whose ``moves`` lists the
(transition, label, successor) of each enabled transition at a marking id.
"""

from collections import deque

from protomine import (
    EventLog,
    cardoso_metric,
    dfg,
    discover,
    discover_tree,
    export_pnml,
    shortest_visible_path,
    size_metric,
)


def language_upto(net, max_len):
    """Every word of at most max_len labels that ends in the final marking.

    A breadth-first walk over (marking id, word) pairs of the compiled
    net; a silent transition moves tokens but adds no label.
    """
    compiled = net.compiled
    start = (compiled.initial, ())
    seen, queue, words = {start}, deque([start]), set()
    while queue:
        sid, word = queue.popleft()
        if sid == compiled.final:
            words.add(word)
        for _, label, fired in compiled.moves(sid):
            state = (fired, word if label is None else word + (label,))
            if len(state[1]) <= max_len and state not in seen:
                seen.add(state)
                queue.append(state)
    return words


log = EventLog(
    {
        ("a", "b", "c", "e"): 10,
        ("a", "c", "b", "e"): 8,
        ("a", "d", "e"): 5,
    }
)

graph = dfg(log)
print("directly-follows edges:")
for (x, y), n in sorted(graph.edges.items()):
    print(f"  {x} -> {y}  ({n}x)")

tree = discover_tree(log)
print("\nprocess tree:", tree)

net = discover(log)
print("net:", net)
print("size:", size_metric(net), " cardoso:", cardoso_metric(net))
print("shortest accepted word length:", shortest_visible_path(net))

words = sorted(language_upto(net, max_len=4))
print("language up to length 4:")
for word in words:
    print("  ", " -> ".join(word) if word else "(empty)")

# every log trace is a word of the model: that is the miner's guarantee
for trace in log.variants:
    assert trace in words

pnml = export_pnml(net)
print(f"\nPNML export is {len(pnml)} bytes; first line:")
print(pnml.decode().splitlines()[1])
