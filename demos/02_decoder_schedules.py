"""Render the machine schedules as clock-cycle grids.

Shows the 14-cycle single-vector grid for n = 8 (shared by the unrolled,
tree and line machines), the decision cycle of every bit, and the 16-cycle
grid that overlaps three vectors on a duplicated innermost stage.
"""

from polarsc import ArchKind, ArchitectureConfig, build_schedule


def render(sched, cells):
    """Print ``cells``, a (stage instance, cycle) -> label grid of ``sched``."""
    instances = sorted({inst for inst, _ in cells},
                       key=lambda s: (-int(s.split("_")[1].rstrip("d")), len(s)))
    width = max(len(v) for v in cells.values()) + 1
    header = "CC   " + "".join(f"{c:>{width}}" for c in range(1, sched.total_cycles + 1))
    print(header)
    for inst in instances:
        row = "".join(f"{cells.get((inst, c), '.'):>{width}}"
                      for c in range(1, sched.total_cycles + 1))
        print(f"{inst:<5}" + row)


tree = build_schedule(ArchitectureConfig(kind=ArchKind.PIPELINED_TREE, n=8))
print(f"single-vector schedule, n=8 ({tree.total_cycles} cycles)\n")
render(tree, tree.function_grid())
decisions = tree.decision_cycles()
print("\nbit decided at cycle:",
      ", ".join(f"u{i}@{cc}" for i, cc in sorted(decisions.items())))

print("\n" + "=" * 60)
overlap = build_schedule(ArchitectureConfig(kind=ArchKind.VECTOR_OVERLAP, n=8,
                                            overlap_p=3))
print(f"\noverlapped schedule, n=8, P=3 ({overlap.total_cycles} cycles)")
print("three staggered vectors share the tree; stage 0 is duplicated\n")
render(overlap, {cell: tag.replace("_", "")
                 for cell, tag in overlap.occupancy_grid().items()})

print("\nCSV export (first lines):")
print("\n".join(overlap.to_csv().splitlines()[:6]))
