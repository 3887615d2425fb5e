"""Experiment fig6 -- Figure 6 / Example 6.1: the QSS data flow.

Regenerates the paper's three-poll walkthrough and asserts its exact
notification sequence: {Bangkok Cuisine, Janta} at t1, nothing at t2,
{Hakata} at t3.  Measures one full polling cycle (poll -> diff -> DOEM
fold -> filter query).
"""

from repro import (
    COMPLEX,
    OEMDatabase,
    QSSServer,
    Subscription,
    Wrapper,
    parse_timestamp,
)


class ScriptedGuideSource:
    """Example 2.2's timeline: Hakata appears on 1Jan97."""

    def __init__(self):
        self.now = None

    def advance(self, when):
        self.now = parse_timestamp(when)

    def export(self):
        db = OEMDatabase(root="guide")
        counter = [0]

        def atom(value):
            counter[0] += 1
            return db.create_node(f"a{counter[0]}", value)

        names = ["Bangkok Cuisine", "Janta"]
        if self.now is not None and self.now >= parse_timestamp("1Jan97"):
            names.append("Hakata")
        for index, name in enumerate(names):
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "restaurant", node)
            db.add_arc(node, "name", atom(name))
        return db


def example61_run():
    server = QSSServer(start="30Dec96 10:00am", deliver_empty=True)
    server.register_wrapper("guide", Wrapper(ScriptedGuideSource(),
                                             name="guide"))
    server.subscribe(Subscription.from_definitions(
        name="Restaurants", frequency="every night at 11:30pm",
        polling="define polling query Restaurants as "
                "select guide.restaurant",
        filter_="define filter query NewRestaurants as "
                "select Restaurants.restaurant<cre at T> where T > t[-1]"),
        "guide")
    return server, server.run_until("2Jan97")


def test_fig6_example61_timeline(benchmark, record_artifact):
    server, notifications = benchmark(example61_run)

    sizes = [len(n.result) for n in notifications]
    assert sizes == [2, 0, 1], "the paper's t1/t2/t3 walkthrough"
    assert notifications[0].polling_time == parse_timestamp("30Dec96 11:30pm")
    assert notifications[2].polling_time == parse_timestamp("1Jan97 11:30pm")

    doem = server.doems.doem("Restaurants")
    hakata_ref = notifications[2].result.first().scalar()
    names = [doem.graph.value(child)
             for child in doem.graph.children(hakata_ref.node, "name")]
    assert names == ["Hakata"]

    lines = [f"t{n.poll_index} = {n.polling_time}: "
             f"{len(n.result)} object(s)" for n in notifications]
    record_artifact("fig6_qss",
                    "Example 6.1 notification timeline "
                    "(paper expects 2 / 0 / 1):\n" + "\n".join(lines))


def test_fig6_single_poll_cycle_cost(benchmark):
    """The per-poll cost: poll + OEMdiff + DOEM fold + filter query."""
    from repro import RestaurantGuideSource

    source = RestaurantGuideSource(seed=11, initial_restaurants=12,
                                   events_per_day=3.0)
    server = QSSServer(start="1Dec96", deliver_empty=True)
    server.register_wrapper("guide", Wrapper(source, name="guide"))
    server.subscribe(Subscription(
        name="S", frequency="every day at 6:00pm",
        polling_query="select guide.restaurant",
        filter_query="select S.restaurant<cre at T> where T > t[-1]"),
        "guide")
    server.run_until("3Dec96")  # warm up: two polls already folded
    state = server.subscriptions.get("S")

    def one_cycle():
        when = state.next_poll
        return server._poll_batch([state], when)

    benchmark.pedantic(one_cycle, rounds=5, iterations=1)
