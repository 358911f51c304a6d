"""Unit tests for node programs and their execution context."""

from __future__ import annotations

import pytest

from repro.congest import (
    InvalidDestination,
    MessageTooLarge,
    NodeContext,
    NodeProgram,
)


def make_context(node_id=0, neighbors=(1, 2), max_words=4):
    return NodeContext(node_id, neighbors, max_words)


class TestNodeContext:
    def test_send_queues_message(self):
        ctx = make_context()
        ctx.send(1, "tag", 7)
        assert ctx.pending_sends == 1
        outbox = ctx.drain_outbox()
        assert outbox[0][0] == 1
        assert outbox[0][1].content == ("tag", 7)
        assert ctx.pending_sends == 0

    def test_send_to_non_neighbour_rejected(self):
        ctx = make_context()
        with pytest.raises(InvalidDestination):
            ctx.send(9, "tag")

    def test_oversized_message_rejected(self):
        ctx = make_context(max_words=2)
        with pytest.raises(MessageTooLarge):
            ctx.send(1, "tag", 1, 2, 3)

    def test_broadcast_sends_to_all_neighbours(self):
        ctx = make_context(neighbors=(3, 1, 2))
        ctx.broadcast("hello")
        destinations = sorted(dest for dest, _ in ctx.drain_outbox())
        assert destinations == [1, 2, 3]

    def test_neighbours_sorted(self):
        ctx = make_context(neighbors=(5, 2, 9))
        assert ctx.neighbors == (2, 5, 9)


class TestNodeProgram:
    def test_base_program_is_idle_and_has_no_result(self):
        program = NodeProgram()
        assert program.is_idle()
        assert program.result() is None

    def test_base_on_round_not_implemented(self):
        with pytest.raises(NotImplementedError):
            NodeProgram().on_round(make_context(), [])
