"""
Fitness, precision and the F_beta score
=======================================

Fitness asks how close each trace is to some word of the model (via an
optimal insert/delete alignment); precision asks how much the model
enables that the log never does (escaping edges). F_beta combines the
two, with beta shifting the weight. ``compute_report`` derives all of
them from one alignment per variant.
"""

from protomine import (
    EventLog,
    alignment_cost,
    choice_parallel_net,
    compute_report,
    f_beta,
    flower_net,
)

net = choice_parallel_net()
log = EventLog(
    {
        ("a", "d", "c", "e"): 9,  # a word of the model
        ("a", "b", "d", "e"): 4,  # also a word
        ("a", "e"): 2,            # two activities short
    }
)

# one optimal alignment per variant
alignments = {trace: alignment_cost(trace, net) for trace in log.variants}
for trace in log.variants:
    result = alignments[trace]
    # a one-trace log scores that trace alone
    fitness = compute_report(EventLog({trace: 1}), net, [], 1.0).fitness
    print(
        f"{' -> '.join(trace):24s} cost {result.cost}  "
        f"fitness {fitness:.3f}  "
        f"aligned to {' '.join(result.model_projection)}"
    )

# the report aligns every variant in one search and keeps the result on
# the net, so scoring this net on this log again aligns nothing
report = compute_report(log, net, [], 1.0)
print("\nlog fitness:", report.fitness)
# a variant deviates exactly when its optimal alignment costs something
deviating = {t: c for t, c in log.variants.items() if alignments[t].cost > 0}
print("deviating variants:", deviating)

# precision: the tight model scores 1.0 on its own behaviour, the
# flower (anything goes) scores much lower on the same log
tight = report.precision
loose = compute_report(log, flower_net(log.activities), [], 1.0).precision
print(f"\nprecision on the real net:   {tight:.3f}")
print(f"precision on the flower net: {loose:.3f}")

for beta in (0.5, 1.0, 2.0):
    print(f"F_{beta}: {f_beta(tight, report.fitness, beta):.4f}")
