"""A full community deployment, like the paper's "softwareputation" site.

Simulates weeks of life for a mixed community (experts, average users,
novices, free riders) with the reputation client installed, then prints
the deployment statistics the paper quotes ("well over 2000 rated
software programs") and the infection trend.

Run:  python examples/community_simulation.py
"""

from repro.analysis.tables import render_table
from repro.sim import CommunityConfig, CommunitySimulation, PopulationConfig


def sparkline(series, buckets=12):
    """Render a coarse text sparkline of a [0,1] time series."""
    marks = " .:-=+*#%@"
    step = max(1, len(series) // buckets)
    cells = []
    for position in range(0, len(series), step):
        value = series[position]
        cells.append(marks[min(len(marks) - 1, int(value * (len(marks) - 1)))])
    return "".join(cells)


def main():
    config = CommunityConfig(
        users=40,
        simulated_days=60,
        seed=2007,
        protection=("reputation",),
        population=PopulationConfig(size=250, seed=1),
    )
    print("setting up the community (registering 40 users over XML)...")
    simulation = CommunitySimulation(config)
    result = simulation.run()

    stats = result.stats()
    rows = [[key.replace("_", " "), _fmt(value)] for key, value in stats.items()]
    print()
    print(render_table(["statistic", "value"], rows, title="Deployment statistics"))

    print("\nactive infection (7-day window), day 1 -> day 60:")
    print("  " + sparkline(result.active_infection_by_day))
    print(f"  start {result.active_infection_by_day[0]:.0%}  "
          f"end {result.active_infection_by_day[-1]:.0%}")

    print("\nrated software growth:")
    rated = result.rated_software_by_day
    print(f"  day 10: {rated[9]}   day 30: {rated[29]}   day 60: {rated[-1]}")

    worst = sorted(
        result.engine.scores.all_scores(), key=lambda score: score.score
    )[:5]
    print("\nlowest-rated programs (the community's spyware wall of shame):")
    for score in worst:
        record = result.engine.vendors.get(score.software_id)
        print(f"  {record.file_name:<24} {score.score:4.1f}/10 "
              f"({score.vote_count} votes)  vendor={record.vendor or '<none>'}")


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


if __name__ == "__main__":
    main()
