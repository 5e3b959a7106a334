"""Inter-MA redirection terminates under any refusal pattern (ROADMAP item 3).

One :class:`~repro.core.client.DietClient` against 1-4 scripted MAs that
refuse (``ServerNotFoundError``), are unbound (``CommunicationError``) or
answer, per an arbitrary drawn script over several consecutive calls.  The
oracle is a ten-line model of the least-recent-rejection order: stamps are
call indices (the scripted transport is zero-cost, so every refusal of one
call shares a simulated instant) and ties keep the configured order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommunicationError, ServerNotFoundError
from tests.property.scripted_mas import ANSWER, REFUSE, UNBOUND, ScriptedMAs

_ERRORS = {REFUSE: ServerNotFoundError, UNBOUND: CommunicationError}


@st.composite
def _scripts(draw):
    n_mas = draw(st.integers(1, 4))
    names = [f"MA{i}" for i in range(n_mas)]
    calls = draw(st.lists(
        st.lists(st.sampled_from((ANSWER, REFUSE, UNBOUND)),
                 min_size=n_mas, max_size=n_mas),
        min_size=1, max_size=6))
    return names, [dict(zip(names, behaviours)) for behaviours in calls]


@given(_scripts())
@settings(max_examples=150, deadline=None)
def test_redirection_terminates_and_follows_least_recent_rejection(script):
    names, calls = script
    stack = ScriptedMAs(names)
    client = stack.client(names)
    outcomes = []

    def drive():
        for behaviour in calls:
            stack.script(behaviour)
            before = len(stack.attempts)
            try:
                outcome = yield from client.call(stack.profile())
            except (ServerNotFoundError, CommunicationError) as exc:
                outcome = type(exc)
            outcomes.append((outcome, stack.attempts[before:]))
            yield stack.engine.timeout(1.0)

    # Termination: the drive finishes (a redirect loop would never drain).
    stack.engine.run_until_complete(drive(), max_time=10.0 * len(calls))

    last_refused = {}                      # the model: MA -> call index
    refusals = dict.fromkeys(names, 0)
    redirects = 0
    for k, (behaviour, (outcome, reached)) in enumerate(zip(calls, outcomes)):
        never = [ma for ma in names if ma not in last_refused]
        order = sorted(names, key=lambda ma: last_refused.get(ma, -1))
        # An MA that has refused sorts after every MA that has not.
        assert order[:len(never)] == never
        expect_reached, expected = [], None
        for i, ma in enumerate(order):
            how = behaviour[ma]
            if how != UNBOUND:
                expect_reached.append(ma)
            if how == ANSWER:
                expected = 0
                break
            refusals[ma] += 1
            last_refused[ma] = k
            redirects += i + 1 < len(order)
            expected = _ERRORS[how]        # the *last* MA's error survives
        # Each MA at most once per call, in model order, up to the answer.
        assert reached == expect_reached
        assert outcome == expected

    assert client.rejections_by_ma == {ma: n for ma, n in refusals.items() if n}
    assert client.rejections == sum(client.rejections_by_ma.values())
    assert client.redirects == redirects <= client.rejections
    if len(names) == 1:
        assert client.redirects == 0
