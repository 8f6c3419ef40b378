"""The one program the benchmark adds to ``repro.programs``: a non-stratified
variant of the paper's traffic program for the ``search_inline`` workload.

``P`` (Listing 1) is stratified, so its well-founded model is total and the
solver never searches.  This program adds, over the same six input
predicates:

* two even negative loops over *derived* atoms -- ``divert/hold`` per busy
  road segment and ``tow/wait`` per stopped car -- each closed by a pair of
  constraints that forces the choice from the window's data, so the
  data-driven part has exactly one stable model but the well-founded model
  leaves every loop atom undefined (completion + unit propagation per
  window);
* two free policy switches (``active/inactive`` over the program's own
  ``mode`` facts) that no constraint decides, so every window has exactly
  ``2**2 = 4`` stable models, all of which are enumerated.
"""

from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.program import Program
from repro.programs.traffic import EVENT_PREDICATES, PROGRAM_P_TEXT

SEARCH_PROGRAM_TEXT = PROGRAM_P_TEXT + """\
% busy segments choose between diverting and holding traffic ...
busy(X) :- many_cars(X).
busy(X) :- very_slow_speed(X).
divert(X) :- busy(X), not hold(X).
hold(X) :- busy(X), not divert(X).
% ... and the traffic light decides which
:- divert(X), traffic_light(X).
:- hold(X), not traffic_light(X).
give_notification(X) :- divert(X).
% stopped cars are towed or waited for; smoke decides which
stopped(C) :- car_speed(C, 0).
smoking(C) :- car_in_smoke(C, high).
tow(C) :- stopped(C), not wait(C).
wait(C) :- stopped(C), not tow(C).
:- tow(C), not smoking(C).
:- wait(C), smoking(C).
% two undecided policy switches: 4 stable models per window
mode(peak). mode(event).
active(M) :- mode(M), not inactive(M).
inactive(M) :- mode(M), not active(M).
give_notification(X) :- hold(X), active(peak).
give_notification(X) :- tow(C), car_location(C, X), active(event).
"""

#: What the search workload streams out (and what the oracle compares).
SEARCH_OUTPUT_PREDICATES = EVENT_PREDICATES + ("divert", "hold", "tow", "wait", "active")


def search_program() -> Program:
    return parse_program(SEARCH_PROGRAM_TEXT, name="P_search")
