"""The paper's motivating example (Section II-A), end to end.

The window W = {average_speed(newcastle,10), car_number(newcastle,55),
traffic_light(newcastle), car_in_smoke(car1,high), car_speed(car1,0),
car_location(car1,dangan)} must produce the event car_fire(dangan) and the
notification for dangan -- and *not* traffic_jam(newcastle), because the
traffic light explains the slow, crowded traffic.

The paper shows that the specific bad random split W1/W2 produces the wrong
event; the dependency-aware split never does.
"""


from repro.core.accuracy import accuracy_of_answer
from repro.core.combining import combine_answer_sets
from repro.core.partitioner import DependencyPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from tests.conftest import make_atom


def paper_bad_split():
    """The exact W1 / W2 split given in Section II-A."""
    w1 = [
        make_atom("average_speed", "newcastle", 10),
        make_atom("car_number", "newcastle", 55),
        make_atom("car_in_smoke", "car1", "high"),
    ]
    w2 = [
        make_atom("traffic_light", "newcastle"),
        make_atom("car_speed", "car1", 0),
        make_atom("car_location", "car1", "dangan"),
    ]
    return w1, w2


class TestMotivatingExample:
    def test_reference_answer(self, event_reasoner_p, motivating_window):
        [answer] = event_reasoner_p.reason(motivating_window).answers
        assert {str(atom) for atom in answer} == {"car_fire(dangan)", "give_notification(dangan)"}

    def test_papers_bad_random_split_produces_the_wrong_event(self, event_reasoner_p):
        w1, w2 = paper_bad_split()
        answers_1 = event_reasoner_p.reason(w1).answers
        answers_2 = event_reasoner_p.reason(w2).answers
        combined = combine_answer_sets([answers_1, answers_2])
        atoms = {str(atom) for answer in combined for atom in answer}
        # The spurious jam and notification for newcastle appear...
        assert "traffic_jam(newcastle)" in atoms
        assert "give_notification(newcastle)" in atoms
        # ...and the true car fire event is lost (its three atoms were split).
        assert "car_fire(dangan)" not in atoms

    def test_bad_split_accuracy_is_zero(self, event_reasoner_p, motivating_window):
        w1, w2 = paper_bad_split()
        reference = event_reasoner_p.reason(motivating_window).answers
        combined = combine_answer_sets(
            [event_reasoner_p.reason(w1).answers, event_reasoner_p.reason(w2).answers]
        )
        # None of the correct atoms are recovered by the bad split.
        assert accuracy_of_answer(combined[0], reference) == 0.0

    def test_dependency_partitioning_gives_the_correct_answer(
        self, event_reasoner_p, plan_p, motivating_window
    ):
        session = StreamSession(event_reasoner_p, partitioner=DependencyPartitioner(plan_p))
        [answer] = session.evaluate_window(motivating_window).answers
        assert {str(atom) for atom in answer} == {"car_fire(dangan)", "give_notification(dangan)"}

    def test_dependency_partitioning_on_p_prime_also_correct(
        self, program_p_prime, plan_p_prime, motivating_window
    ):
        reasoner = Reasoner(program_p_prime, INPUT_PREDICATES, EVENT_PREDICATES)
        reference = reasoner.reason(motivating_window).answers
        session = StreamSession(reasoner, partitioner=DependencyPartitioner(plan_p_prime))
        [answer] = session.evaluate_window(motivating_window).answers
        assert accuracy_of_answer(answer, reference) == 1.0
