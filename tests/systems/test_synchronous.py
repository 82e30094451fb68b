"""The synchronous round executor."""

from fractions import Fraction

import pytest

from repro.errors import SimulationError
from repro.systems import (
    Agent,
    CoinTossingAgent,
    FunctionAgent,
    IdleAgent,
    Message,
    PerfectChannel,
    LossyChannel,
    SyncProtocol,
    act,
    certainly,
    chance,
    protocol_system,
    run_protocol,
)


class EchoAgent(Agent):
    """Remembers every message content it has ever received."""

    def initial_state(self, input_value):
        return ()

    def step(self, state, inbox, round_number):
        heard = tuple(message.content for message in inbox)
        return certainly(state + heard)


class SenderAgent(Agent):
    """Sends one message to agent 1 in round 0."""

    def initial_state(self, input_value):
        return input_value

    def step(self, state, inbox, round_number):
        if round_number == 0:
            return certainly(state, Message(0, 1, f"hello-{state}"))
        return certainly(state)


class TestSyncProtocol:
    def test_defaults(self):
        protocol = SyncProtocol(agents=[IdleAgent()])
        assert protocol.clocked == (True,)

    def test_horizon_validation(self):
        with pytest.raises(SimulationError):
            SyncProtocol(agents=[IdleAgent()], horizon=0)

    def test_clocked_length_validation(self):
        with pytest.raises(SimulationError):
            SyncProtocol(agents=[IdleAgent()], clocked=(True, False))

    def test_wrap_local(self):
        protocol = SyncProtocol(agents=[IdleAgent(), IdleAgent()], clocked=(True, False))
        assert protocol.wrap_local(0, "s", 3) == ("s", 3)
        assert protocol.wrap_local(1, "s", 3) == "s"


class TestRunProtocol:
    def test_coin_two_runs(self):
        protocol = SyncProtocol(agents=[CoinTossingAgent(Fraction(1, 2))], horizon=1)
        tree = run_protocol(protocol, [None])
        assert len(tree.runs) == 2
        assert all(tree.run_probability(run) == Fraction(1, 2) for run in tree.runs)

    def test_inputs_length_checked(self):
        protocol = SyncProtocol(agents=[IdleAgent()])
        with pytest.raises(SimulationError):
            run_protocol(protocol, [None, None])

    def test_message_delivery_next_round(self):
        protocol = SyncProtocol(agents=[SenderAgent(), EchoAgent()], horizon=2)
        tree = run_protocol(protocol, ["x", None])
        (run,) = tree.runs
        # receiver state (unwrapped) at each time
        states = [run.local_state(1, time)[0] for time in range(run.horizon)]
        assert states[0] == ()
        assert states[1] == ()  # sent at round 0, delivered into round-1 step
        assert states[2] == ("hello-x",)

    def test_lossy_channel_branches(self):
        protocol = SyncProtocol(
            agents=[SenderAgent(), EchoAgent()],
            channel=LossyChannel(Fraction(1, 3)),
            horizon=2,
        )
        tree = run_protocol(protocol, ["x", None])
        assert len(tree.runs) == 2
        probabilities = sorted(tree.run_probability(run) for run in tree.runs)
        assert probabilities == [Fraction(1, 3), Fraction(2, 3)]

    def test_probabilities_must_sum(self):
        class BrokenAgent(Agent):
            def initial_state(self, input_value):
                return "s"

            def step(self, state, inbox, round_number):
                return [(Fraction(1, 3), act("s"))]

        protocol = SyncProtocol(agents=[BrokenAgent()], horizon=1)
        with pytest.raises(SimulationError):
            run_protocol(protocol, [None])

    def test_clocked_system_is_synchronous(self):
        protocol = SyncProtocol(
            agents=[IdleAgent(), CoinTossingAgent(Fraction(1, 2))], horizon=2
        )
        psys = protocol_system(protocol, {"A": [None, None]})
        assert psys.system.is_synchronous()

    def test_unclocked_idle_agent_breaks_synchrony(self):
        protocol = SyncProtocol(
            agents=[IdleAgent(), CoinTossingAgent(Fraction(1, 2))],
            horizon=2,
            clocked=(False, True),
        )
        psys = protocol_system(protocol, {"A": [None, None]})
        assert not psys.system.is_synchronous()

    def test_joint_coin_tosses_independent(self):
        protocol = SyncProtocol(
            agents=[CoinTossingAgent(Fraction(1, 2)), CoinTossingAgent(Fraction(1, 3))],
            horizon=1,
        )
        tree = run_protocol(protocol, [None, None])
        assert len(tree.runs) == 4
        probabilities = sorted(tree.run_probability(run) for run in tree.runs)
        assert probabilities == [
            Fraction(1, 6),
            Fraction(1, 6),
            Fraction(1, 3),
            Fraction(1, 3),
        ]

    def test_channel_asked_once_per_sent_and_round(self):
        class CountingChannel(LossyChannel):
            def __init__(self):
                super().__init__(Fraction(1, 3))
                self.calls = []

            def deliveries(self, messages, round_number):
                self.calls.append((messages, round_number))
                return super().deliveries(messages, round_number)

        channel = CountingChannel()
        protocol = SyncProtocol(
            agents=[CoinTossingAgent(Fraction(1, 2)), SenderAgent(), EchoAgent()],
            channel=channel,
            horizon=3,
        )
        tree = run_protocol(protocol, [None, "x", None])
        # more internal nodes than distinct (sent, round) pairs, and each
        # pair reaches the channel exactly once
        assert len(channel.calls) == len(set(channel.calls))
        assert len(channel.calls) < len(tree.structure())
        # nothing carries over to the next unfolding
        first = list(channel.calls)
        channel.calls.clear()
        run_protocol(protocol, [None, "x", None])
        assert channel.calls == first


class TestProtocolSystem:
    def test_one_tree_per_adversary(self):
        protocol = SyncProtocol(agents=[SenderAgent(), EchoAgent()], horizon=2)
        psys = protocol_system(protocol, {"in-x": ["x", None], "in-y": ["y", None]})
        assert set(psys.adversaries) == {"in-x", "in-y"}

    def test_agents_helpers(self):
        assert certainly("s")[0][0] == 1
        branches = chance([(Fraction(1, 2), act("a")), (Fraction(1, 2), act("b"))])
        assert sum(probability for probability, _ in branches) == 1

    def test_function_agent(self):
        agent = FunctionAgent(
            initial=lambda value: ("init", value),
            step=lambda state, inbox, round_number: certainly(state),
        )
        assert agent.initial_state(3) == ("init", 3)
        assert agent.step(("init", 3), (), 0) == certainly(("init", 3))
