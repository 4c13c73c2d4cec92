"""Golden documents pinning the exact ``--json`` bytes of the cli.

The first two compute tuples follow the ROADMAP baseline recipe
(``random.Random(i)``, ``random_poly`` with coeff_bound 3 and density 0.5,
every component of exact degree 2) for i = 1 and i = 8, both on the pd2
branch: three of their syzygy generators already form their basis, so they
pin the route without completion (``completion`` is null).  The other two
are draws 18 and 19 of the acceptance suite's criterion 4, where no three
of five syzygy generators are a basis: they pin the graded completion route, so
any change to how the completion matrix, its inverse or its determinant is
obtained, or a shortcut extended to more than three generators, must leave
their documents unchanged.  The bounds tuple is the same recipe
at d = 3 for i = 1, and the resolve tuple is the reference tuple of the
acceptance suite: both pin the graded minimal free resolution (ranks, shifts,
entry degrees), so any change to how minimal generators are selected must
leave it unchanged.  The second bounds tuple, ``(s^2 - t, t^2, 1, 0)``, has a
zero component, so its fixed-first-map resolution carries a trivial summand
and the minimal Betti numbers in its report differ from the fixed ranks.

The benchmark corpora are pinned by digest: for each of seeds 1-3, the
sha256 of the documents, each followed by a newline, in run order, of
``compute``, ``resolve`` and ``bounds`` on ``full_d2`` and ``mixed`` and of
``resolve`` and ``bounds`` on ``bounds_d3``: 270 documents.  The corpus
recipe is read from ``perfbench/corpus.py`` and from no other benchmark
file.

The graded completion route is pinned by digest too: the sha256 of the
``compute`` document of the d = 2 recipe tuple for each i in 1-40 whose four
or more syzygy generators hold no basis triple, so that ``completion`` is
set: i = 13, 14, 15, 17, 23, 25, 32, 34, 35, 36 and 40.  Each recipe tuple
is read, unreflected, from ``perfbench/corpus.py``.

The recipe tuples and the criterion-4 draws are pinned together by one
digest: the sha256 of the documents of ``compute``,
``resolve`` and ``bounds`` on each d = 2 recipe tuple, i = 1-40, and on
each draw 0-49 of the criterion-4 stream, then of ``resolve`` and
``bounds`` on each d = 3 recipe tuple, i = 1-12: 294 documents, unreflected
and in that order, each followed by a newline.

The maps of those resolutions are pinned apart from the documents, which
show d1 only for pd1 bases and d2 only through its entry degrees: the
sha256 of ``str(d1)``, ``q``, ``str(d2)`` and ``p``, each followed by a
newline, of ``free_resolution`` on the homogenized tuple of each row of
that digest, in its order, then of each d = 4 recipe tuple, i = 1-3.  So
the canonical bases of the graded syzygy spaces, from which both maps are
picked, cannot change unseen.

Three more resolve tuples pin the resolution where the scan of graded
pieces has edge cases: ``(s^2 - t, t^2, 1, 0)`` (a zero component and a
redundant generator), the d = 3 recipe tuple for i = 1, and a tuple of the
``mixed`` benchmark corpus whose first Schreyer degree bound (10) lies well
above its top first-syzygy degree (6).
"""

import hashlib
import json

import pytest

from mubasis.cli import parse_parametrization, run
from mubasis.pipeline import resolve, validate
from helpers import benchmark_corpus

GOLDEN = {
    "(s*t + 2, -t^2 + 2, -s*t, -2*s*t)":
        {'alpha': '1/2',
         'basis': [['1/2*t^2 - 1', '1', '1/2*t^2 - 1', '0'],
                   ['0', '0', '1', '-1/2'],
                   ['s*t', '0', 's*t', '1']],
         'bounds': {'all_passed': True,
                    'case': 'general',
                    'case_value': 1219376494053317606400,
                    'case_values': {'general': 1219376494053317606400,
                                    'general_aci': 3886393056,
                                    'height3': 46283666227200,
                                    'pd1': 2},
                    'observed': {'basis_degree_max': 2,
                                 'basis_degrees': [2, 0, 2],
                                 'beta1': 3,
                                 'beta2': 1,
                                 'beta2_fixed': 1,
                                 'gamma1': 2,
                                 'gamma2': 2,
                                 'max_p': 5,
                                 'max_q': 4,
                                 'ranks': [4, 4, 1],
                                 'regularity': 3},
                    'values': {'D': 3,
                               'basis_bound': 5289984,
                               'beta1_bound': 4,
                               'beta2_bound': 15,
                               'beta2_bound_equal': 24,
                               'height3_beta1_bound': 6,
                               'height3_beta2_bound': 3,
                               'lazard': 2,
                               'qs_bound': 881664,
                               'reg_bound': 4},
                    'verdicts': [{'applicable': True,
                                  'bound': 4,
                                  'name': 'reg(ideal) <= 3d-2',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 15,
                                  'name': 'beta2 <= C(3d,2)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 4,
                                  'name': 'beta1 <= beta2 + m - 1',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 24,
                                  'name': 'beta2 <= m*C(2d,2) (equal degrees)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 5,
                                  'name': 'graded beta2 in degree 5 <= H(3)-H(2)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 5,
                                  'name': 'max q_i <= 3d-1',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 6,
                                  'name': 'max p_i <= 3d',
                                  'observed': 5,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 1,
                                  'name': 'last rank of fixed resolution = beta2',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': False,
                                  'bound': 6,
                                  'name': 'beta1 <= 2d+2 (height 3, equal degrees)',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': False,
                                  'bound': 3,
                                  'name': 'beta2 <= 2d-1 (height 3, equal degrees)',
                                  'observed': 1,
                                  'passed': True}]},
         'branch': 'pd2',
         'command': 'compute',
         'completion': None,
         'd': 2,
         'degree_sum': 4,
         'degrees': [2, 0, 2],
         'input': ['s*t + 2', '-t^2 + 2', '-s*t', '-2*s*t'],
         'invariants': {'a': 1, 'beta2': 1, 'gamma1': 2, 'gamma2': 2},
         'mu': None,
         'resolution': {'ranks': [4, 4, 1],
                        'shifts': {'first': [-2, -2, -2, -2],
                                   'last': [-5],
                                   'middle': [-2, -3, -4, -4]}},
         'seed': 0,
         'warnings': []},
    "(2*s*t + t^2 - 2*s + 2*t, -3*s*t, s^2 + 3*s*t, 3*s^2 + 2*t^2 + 2*s - 3*t)":
        {'alpha': '6/7',
         'basis': [['6/25*s', '13/25*s + 1', '9/25*s + 18/25', '-3/25*s'],
                   ['0', '-425/28*s + 625/42*t - 75/4', '-75/4*s + 75/7*t - 25/2', '25/4*s'],
                   ['-3*s*t - 12/7*t^2 + 9/2*s + 18/7*t',
                    '-13/2*s*t - 26/7*t^2 - 3*s - 12/7*t + 17/7',
                    '-9/2*s*t - 18/7*t^2 - 9*s - 36/7*t + 3',
                    '3/2*s*t + 6/7*t^2 + 3*s + 12/7*t']],
         'bounds': {'all_passed': True,
                    'case': 'general',
                    'case_value': 1219376494053317606400,
                    'case_values': {'general': 1219376494053317606400,
                                    'general_aci': 3886393056,
                                    'height3': 46283666227200,
                                    'pd1': 2},
                    'observed': {'basis_degree_max': 2,
                                 'basis_degrees': [1, 1, 2],
                                 'beta1': 4,
                                 'beta2': 1,
                                 'beta2_fixed': 1,
                                 'gamma1': 2,
                                 'gamma2': 2,
                                 'max_p': 5,
                                 'max_q': 4,
                                 'ranks': [4, 4, 1],
                                 'regularity': 3},
                    'values': {'D': 3,
                               'basis_bound': 5289984,
                               'beta1_bound': 4,
                               'beta2_bound': 15,
                               'beta2_bound_equal': 24,
                               'height3_beta1_bound': 6,
                               'height3_beta2_bound': 3,
                               'lazard': 2,
                               'qs_bound': 881664,
                               'reg_bound': 4},
                    'verdicts': [{'applicable': True,
                                  'bound': 4,
                                  'name': 'reg(ideal) <= 3d-2',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 15,
                                  'name': 'beta2 <= C(3d,2)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 4,
                                  'name': 'beta1 <= beta2 + m - 1',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 24,
                                  'name': 'beta2 <= m*C(2d,2) (equal degrees)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 5,
                                  'name': 'graded beta2 in degree 5 <= H(3)-H(2)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 5,
                                  'name': 'max q_i <= 3d-1',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 6,
                                  'name': 'max p_i <= 3d',
                                  'observed': 5,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 1,
                                  'name': 'last rank of fixed resolution = beta2',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': False,
                                  'bound': 6,
                                  'name': 'beta1 <= 2d+2 (height 3, equal degrees)',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': False,
                                  'bound': 3,
                                  'name': 'beta2 <= 2d-1 (height 3, equal degrees)',
                                  'observed': 1,
                                  'passed': True}]},
         'branch': 'pd2',
         'command': 'compute',
         'completion': None,
         'd': 2,
         'degree_sum': 4,
         'degrees': [1, 1, 2],
         'input': ['2*s*t + t^2 - 2*s + 2*t',
                   '-3*s*t',
                   's^2 + 3*s*t',
                   '3*s^2 + 2*t^2 + 2*s - 3*t'],
         'invariants': {'a': 1, 'beta2': 1, 'gamma1': 2, 'gamma2': 2},
         'mu': None,
         'resolution': {'ranks': [4, 4, 1],
                        'shifts': {'first': [-2, -2, -2, -2],
                                   'last': [-5],
                                   'middle': [-3, -3, -3, -4]}},
         'seed': 0,
         'warnings': []},
    # criterion-4 draws where no three of the five syzygy generators are a
    # basis: they keep the graded completion route
    "(0, -2*s^3 - s*t^2 - 3*t^3 + s*t, 2*s^2 + 3*s*t + t, s^2*t - s^2 - 2*s*t + 3*s - t)":
        {'alpha': '114950/729',
         'basis': [['0',
                    '1352/177147*s^2*t^3 + 754/59049*s^2*t^2 - 676/177147*s*t^3 - 454/19683*s^2*t '
                    '- 377/19683*s*t^2 - 676/177147*t^3 - 10/729*s^2 + 65/2187*s*t - '
                    '1079/59049*t^2 + 95/6561*s + 101/19683*t + 1/27',
                    '-19604/1948617*s^5*t^5 + 60463/5845851*s^5*t^4 + 196040/5845851*s^4*t^5 + '
                    '343478/5845851*s^5*t^3 - 845/72171*s^4*t^4 + 107653/5845851*s^3*t^5 - '
                    '180596/1948617*s^5*t^2 - 135116/531441*s^4*t^3 + 234689/23383404*s^3*t^4 - '
                    '681577/5845851*s^2*t^5 + 1871/649539*s^5*t + 244363/649539*s^4*t^2 + '
                    '547145/5845851*s^3*t^3 - 4248569/23383404*s^2*t^4 + 2197/72171*s*t^5 + '
                    '740/24057*s^5 - 2692/72171*s^4*t - 710291/1948617*s^3*t^2 + '
                    '1903115/2598156*s^2*t^3 + 3034265/23383404*s*t^4 + 258739/5845851*t^5 - '
                    '26335/216513*s^4 + 563381/2598156*s^3*t + 53939/866052*s^2*t^2 - '
                    '1044449/1948617*s*t^3 + 1019213/7794468*t^4 + 3217/144342*s^3 - '
                    '139124/216513*s^2*t - 13031/1299078*s*t^2 - 170069/866052*t^3 + '
                    '2021/16038*s^2 + 127679/288684*s*t - 6091/78732*t^2 + 4111/24057*s - '
                    '5002/72171*t',
                    '39208/1948617*s^5*t^4 + 19604/649539*s^4*t^5 - 3302/5845851*s^5*t^3 - '
                    '161785/5845851*s^4*t^4 - 19604/649539*s^3*t^5 - 230086/1948617*s^5*t^2 - '
                    '1414805/5845851*s^4*t^3 - 89284/531441*s^3*t^4 - 695435/5845851*s^2*t^5 + '
                    '43702/649539*s^5*t + 201389/649539*s^4*t^2 + 1336649/11691702*s^3*t^3 - '
                    '4146311/23383404*s^2*t^4 + 369772/5845851*s*t^5 + 1480/24057*s^5 + '
                    '8180/216513*s^4*t + 524275/3897234*s^3*t^2 + 5067685/7794468*s^2*t^3 + '
                    '2217254/5845851*s*t^4 + 325663/5845851*t^5 - 12710/216513*s^4 + '
                    '24895/118098*s^3*t + 37819/288684*s^2*t^2 - 855623/3897234*s*t^3 + '
                    '1446497/7794468*t^4 - 683/6561*s^3 - 127586/216513*s^2*t - '
                    '736987/1299078*s*t^2 - 183401/866052*t^3 - 6440/72171*s^2 - 97153/433026*s*t '
                    '- 14839/78732*t^2 - 5002/72171*t'],
                   ['1', '0', '0', '0'],
                   ['0',
                    '-92950/6561*s^3*t^2 - 2416700/177147*s^2*t^3 + 1240525/4374*s^3*t + '
                    '16080350/59049*s^2*t^2 + 1208350/177147*s*t^3 + 159775/162*s^3 + '
                    '77881375/78732*s^2*t - 1347775/13122*s*t^2 + 1208350/177147*t^3 - '
                    '159775/324*s^2 - 7793500/6561*s*t - 13152425/118098*t^2 - 20185825/13122*s - '
                    '78017225/78732*t - 159775/108',
                    '122525/6561*s^6*t^4 + 3185650/177147*s^5*t^5 - 33405775/78732*s^6*t^3 - '
                    '489411325/1062882*s^5*t^4 - 31856500/531441*s^4*t^5 - 5087525/19683*s^6*t^2 '
                    '+ 943244575/1062882*s^5*t^3 + 295830275/236196*s^4*t^4 - '
                    '34987225/1062882*s^3*t^5 + 75470425/26244*s^6*t + 799352350/177147*s^5*t^2 + '
                    '28077201425/8503056*s^4*t^3 + 3798929875/4251528*s^3*t^4 + '
                    '221512525/1062882*s^2*t^5 - 537425/243*s^6 - 2672153875/236196*s^5*t - '
                    '1270338475/157464*s^4*t^2 - 2908607975/1062882*s^3*t^3 - '
                    '17568745675/4251528*s^2*t^4 - 714025/13122*s*t^5 + 7306075/972*s^5 + '
                    '2076366025/314928*s^4*t - 26291210225/2834352*s^3*t^2 - '
                    '2536026025/157464*s^2*t^3 + 3549485875/4251528*s*t^4 - 84090175/1062882*t^5 '
                    '- 88611725/157464*s^4 + 12966359075/944784*s^3*t + 4785673525/314928*s^2*t^2 '
                    '+ 1722769750/177147*s*t^3 + 2036217625/1417176*t^4 + 29362475/26244*s^3 + '
                    '3743230375/314928*s^2*t - 472248025/944784*s*t^2 + 2731645475/314928*t^3 - '
                    '109135675/5832*s^2 - 2951527075/104976*s*t + 1622133925/314928*t^2 + '
                    '52019125/8748*s - 19538675/13122*t',
                    '-245050/6561*s^6*t^3 - 16295825/177147*s^5*t^4 - 3185650/59049*s^4*t^5 + '
                    '31935475/39366*s^6*t^2 + 4309170775/2125764*s^5*t^3 + '
                    '1322919325/1062882*s^4*t^4 + 3185650/59049*s^3*t^5 + 17428525/13122*s^6*t + '
                    '1957256825/708588*s^5*t^2 + 1688977225/2125764*s^4*t^3 - '
                    '1313784875/2125764*s^3*t^4 + 226016375/1062882*s^2*t^5 - 1074850/243*s^6 - '
                    '1732150225/118098*s^5*t - 2965652675/157464*s^4*t^2 - '
                    '113229982775/8503056*s^3*t^3 - 18241331875/4251528*s^2*t^4 - '
                    '60087950/531441*s*t^5 + 856975/486*s^5 - 1252714975/157464*s^4*t - '
                    '72189823975/2834352*s^3*t^2 - 42845797475/2834352*s^2*t^3 + '
                    '3414083075/2125764*s*t^4 - 105840475/1062882*t^5 + 172576825/78732*s^4 + '
                    '5236028975/472392*s^3*t + 2464523375/104976*s^2*t^2 + '
                    '60791002025/2834352*s*t^3 + 2509704925/1417176*t^4 + 257185325/26244*s^3 + '
                    '5737653125/157464*s^2*t + 34209678625/944784*s*t^2 + 3667852175/314928*t^3 - '
                    '32480450/6561*s^2 - 55068775/157464*s*t + 3019845625/314928*t^2 - '
                    '19538675/13122*t']],
         'bounds': {'all_passed': True,
                    'case': 'general',
                    'case_value': 799023888130072930931667600,
                    'case_values': {'general': 799023888130072930931667600,
                                    'general_aci': 336630600000,
                                    'height3': 438436702721203200,
                                    'pd1': 3},
                    'observed': {'basis_degree_max': 10,
                                 'basis_degrees': [10, 0, 10],
                                 'beta1': 4,
                                 'beta2': 2,
                                 'beta2_fixed': 2,
                                 'gamma1': 4,
                                 'gamma2': 2,
                                 'max_p': 8,
                                 'max_q': 7,
                                 'ranks': [4, 5, 2],
                                 'regularity': 6},
                    'values': {'D': 6,
                               'basis_bound': 7772786112,
                               'beta1_bound': 5,
                               'beta2_bound': 36,
                               'beta2_bound_equal': 60,
                               'height3_beta1_bound': 8,
                               'height3_beta2_bound': 5,
                               'lazard': 4,
                               'qs_bound': 485799132,
                               'reg_bound': 7},
                    'verdicts': [{'applicable': True,
                                  'bound': 7,
                                  'name': 'reg(ideal) <= 3d-2',
                                  'observed': 6,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 36,
                                  'name': 'beta2 <= C(3d,2)',
                                  'observed': 2,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 5,
                                  'name': 'beta1 <= beta2 + m - 1',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 45,
                                  'name': 'beta2 <= m*C(2d,2) (equal degrees)',
                                  'observed': 2,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 9,
                                  'name': 'graded beta2 in degree 8 <= H(6)-H(5)',
                                  'observed': 2,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 8,
                                  'name': 'max q_i <= 3d-1',
                                  'observed': 7,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 9,
                                  'name': 'max p_i <= 3d',
                                  'observed': 8,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 2,
                                  'name': 'last rank of fixed resolution = beta2',
                                  'observed': 2,
                                  'passed': True},
                                 {'applicable': False,
                                  'bound': 8,
                                  'name': 'beta1 <= 2d+2 (height 3, equal degrees)',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': False,
                                  'bound': 5,
                                  'name': 'beta2 <= 2d-1 (height 3, equal degrees)',
                                  'observed': 2,
                                  'passed': True}]},
         'branch': 'pd2',
         'command': 'compute',
         'completion': {'bound': 485799132,
                        'deg_M': 11,
                        'det': '-729/1264450',
                        'within_bound': True},
         'd': 3,
         'degree_sum': 20,
         'degrees': [10, 0, 10],
         'input': ['0',
                   '-2*s^3 - s*t^2 - 3*t^3 + s*t',
                   '2*s^2 + 3*s*t + t',
                   's^2*t - s^2 - 2*s*t + 3*s - t'],
         'invariants': {'a': 2, 'beta2': 2, 'gamma1': 4, 'gamma2': 2},
         'mu': None,
         'resolution': {'ranks': [4, 5, 2],
                        'shifts': {'first': [-3, -3, -3, -3],
                                   'last': [-8, -8],
                                   'middle': [-3, -6, -6, -6, -7]}},
         'seed': 0,
         'warnings': ['some components are zero (degenerate geometry)']},
    "(-3*s^2*t - 3*s^2, 3*s*t + t^2 + 2*s + 1, 0, "
    "-2*s^3 - s^2*t + s*t^2 - t^3 + s^2 + 2*s*t - 2*s - t)":
        {'alpha': '234/25',
         'basis': [['6/5*s^2*t^2 + 14/5*s*t^3 + 4/5*t^4 + 36/25*s^2*t + 49/25*s*t^2 + 104/25*t^3 '
                    '+ 84/25*s^2 + 204/25*s*t + 87/25*t^2 + 96/25*s - 126/25*t + 87/25',
                    '6/5*s^3*t^2 + 12/5*s^2*t^3 + 36/25*s^3*t + 42/25*s^2*t^2 + 21/5*s*t^3 - '
                    '6/5*t^4 + 84/25*s^3 + 192/25*s^2*t + 66/25*s*t^2 + 9/25*t^3 + 132/25*s^2 - '
                    '138/25*s*t - 6/5*t^2 + 18/25*s + 9/25*t',
                    '0',
                    '-3/5*s*t^2 - 6/5*t^3 - 18/25*s*t + 9/25*t^2 - 42/25*s - 6/5*t + 9/25'],
                   ['-6*s*t^3 - 2*t^4 - 6*s*t^2 - 13*t^3 - 6*s*t - 23*t^2 - 6*s - 3*t + 3',
                    '-6*s^2*t^3 - 6*s^2*t^2 - 12*s*t^3 + 3*t^4 - 6*s^2*t - 24*s*t^2 + 3*t^3 - '
                    '6*s^2 - 6*s*t + 3*t^2 + 6*s + 3*t',
                    '0',
                    '3*t^3 + 3*t^2 + 3*t + 3'],
                   ['0', '0', '1', '0']],
         'bounds': {'all_passed': True,
                    'case': 'general',
                    'case_value': 799023888130072930931667600,
                    'case_values': {'general': 799023888130072930931667600,
                                    'general_aci': 336630600000,
                                    'height3': 438436702721203200,
                                    'pd1': 3},
                    'observed': {'basis_degree_max': 5,
                                 'basis_degrees': [5, 5, 0],
                                 'beta1': 4,
                                 'beta2': 2,
                                 'beta2_fixed': 2,
                                 'gamma1': 3,
                                 'gamma2': 2,
                                 'max_p': 8,
                                 'max_q': 6,
                                 'ranks': [4, 5, 2],
                                 'regularity': 6},
                    'values': {'D': 6,
                               'basis_bound': 5829589584,
                               'beta1_bound': 5,
                               'beta2_bound': 36,
                               'beta2_bound_equal': 60,
                               'height3_beta1_bound': 8,
                               'height3_beta2_bound': 5,
                               'lazard': 4,
                               'qs_bound': 485799132,
                               'reg_bound': 7},
                    'verdicts': [{'applicable': True,
                                  'bound': 7,
                                  'name': 'reg(ideal) <= 3d-2',
                                  'observed': 6,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 36,
                                  'name': 'beta2 <= C(3d,2)',
                                  'observed': 2,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 5,
                                  'name': 'beta1 <= beta2 + m - 1',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 45,
                                  'name': 'beta2 <= m*C(2d,2) (equal degrees)',
                                  'observed': 2,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 9,
                                  'name': 'graded beta2 in degree 7 <= H(5)-H(4)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 8,
                                  'name': 'graded beta2 in degree 8 <= H(6)-H(5)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 8,
                                  'name': 'max q_i <= 3d-1',
                                  'observed': 6,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 9,
                                  'name': 'max p_i <= 3d',
                                  'observed': 8,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 2,
                                  'name': 'last rank of fixed resolution = beta2',
                                  'observed': 2,
                                  'passed': True},
                                 {'applicable': False,
                                  'bound': 8,
                                  'name': 'beta1 <= 2d+2 (height 3, equal degrees)',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': False,
                                  'bound': 5,
                                  'name': 'beta2 <= 2d-1 (height 3, equal degrees)',
                                  'observed': 2,
                                  'passed': True}]},
         'branch': 'pd2',
         'command': 'compute',
         'completion': {'bound': 485799132, 'deg_M': 5, 'det': '25/78', 'within_bound': True},
         'd': 3,
         'degree_sum': 10,
         'degrees': [5, 5, 0],
         'input': ['-3*s^2*t - 3*s^2',
                   '3*s*t + t^2 + 2*s + 1',
                   '0',
                   '-2*s^3 - s^2*t + s*t^2 - t^3 + s^2 + 2*s*t - 2*s - t'],
         'invariants': {'a': 2, 'beta2': 2, 'gamma1': 3, 'gamma2': 2},
         'mu': None,
         'resolution': {'ranks': [4, 5, 2],
                        'shifts': {'first': [-3, -3, -3, -3],
                                   'last': [-7, -8],
                                   'middle': [-3, -6, -6, -6, -6]}},
         'seed': 0,
         'warnings': ['some components are zero (degenerate geometry)']},
}


# Documents of the other commands, keyed by (command, tuple text).
GOLDEN_BY_COMMAND = {
    ("bounds", "(s^3 + 2*s^2*t - 2*t^3 - 1, -s^3 + 2*t^2, s^3 - 2*s*t - 2*t^2, 3*t^3 - s + 3)"):
        {'bounds': {'all_passed': True,
                    'case': 'general_aci',
                    'case_value': 336630600000,
                    'case_values': {'general': 799023888130072930931667600,
                                    'general_aci': 336630600000,
                                    'height3': 438436702721203200,
                                    'pd1': 3},
                    'observed': {'beta1': 6,
                                 'beta2': 3,
                                 'beta2_fixed': 3,
                                 'gamma1': 3,
                                 'gamma2': 2,
                                 'max_p': 7,
                                 'max_q': 6,
                                 'ranks': [4, 6, 3],
                                 'regularity': 5},
                    'values': {'D': 9,
                               'basis_bound': 336630600000,
                               'beta1_bound': 6,
                               'beta2_bound': 36,
                               'beta2_bound_equal': 60,
                               'height3_beta1_bound': 8,
                               'height3_beta2_bound': 5,
                               'lazard': 4,
                               'qs_bound': 22442040000,
                               'reg_bound': 7},
                    'verdicts': [{'applicable': True,
                                  'bound': 7,
                                  'name': 'reg(ideal) <= 3d-2',
                                  'observed': 5,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 36,
                                  'name': 'beta2 <= C(3d,2)',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 6,
                                  'name': 'beta1 <= beta2 + m - 1',
                                  'observed': 6,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 60,
                                  'name': 'beta2 <= m*C(2d,2) (equal degrees)',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 9,
                                  'name': 'graded beta2 in degree 7 <= H(5)-H(4)',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 8,
                                  'name': 'max q_i <= 3d-1',
                                  'observed': 6,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 9,
                                  'name': 'max p_i <= 3d',
                                  'observed': 7,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 3,
                                  'name': 'last rank of fixed resolution = beta2',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 8,
                                  'name': 'beta1 <= 2d+2 (height 3, equal degrees)',
                                  'observed': 6,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 5,
                                  'name': 'beta2 <= 2d-1 (height 3, equal degrees)',
                                  'observed': 3,
                                  'passed': True}]},
         'command': 'bounds',
         'd': 3,
         'input': ['s^3 + 2*s^2*t - 2*t^3 - 1',
                   '-s^3 + 2*t^2',
                   's^3 - 2*s*t - 2*t^2',
                   '3*t^3 - s + 3'],
         'seed': 0,
         'warnings': []},
    ("resolve", "(s^2, t^2, s^2-1, s^2+1)"):
        {'betti': {'0,2': 4, '1,2': 1, '1,4': 3, '2,6': 1},
         'command': 'resolve',
         'd': 2,
         'generators': ['s^2', 't^2', 's^2 - u^2', 's^2 + u^2'],
         'input': ['s^2', 't^2', 's^2 - 1', 's^2 + 1'],
         'invariants': {'a': 1, 'gamma1': 2, 'gamma2': 2},
         'ranks': [4, 4, 1],
         'seed': 0,
         'shifts': {'first': [-2, -2, -2, -2], 'last': [-6], 'middle': [-2, -4, -4, -4]},
         'warnings': []},
    ("bounds", "(s^2 - t, t^2, 1, 0)"):
        {'bounds': {'all_passed': True,
                    'case': 'height3',
                    'case_value': 46283666227200,
                    'case_values': {'general': 1219376494053317606400,
                                    'general_aci': 3886393056,
                                    'height3': 46283666227200,
                                    'pd1': 2},
                    'observed': {'beta1': 3,
                                 'beta2': 1,
                                 'beta2_fixed': 1,
                                 'gamma1': 2,
                                 'gamma2': 2,
                                 'max_p': 6,
                                 'max_q': 4,
                                 'ranks': [4, 4, 1],
                                 'regularity': 4},
                    'values': {'D': 3,
                               'basis_bound': 5289984,
                               'beta1_bound': 4,
                               'beta2_bound': 15,
                               'beta2_bound_equal': 24,
                               'height3_beta1_bound': 6,
                               'height3_beta2_bound': 3,
                               'lazard': 2,
                               'qs_bound': 881664,
                               'reg_bound': 4},
                    'verdicts': [{'applicable': True,
                                  'bound': 4,
                                  'name': 'reg(ideal) <= 3d-2',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 15,
                                  'name': 'beta2 <= C(3d,2)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 4,
                                  'name': 'beta1 <= beta2 + m - 1',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 18,
                                  'name': 'beta2 <= m*C(2d,2) (equal degrees)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 6,
                                  'name': 'graded beta2 in degree 6 <= H(4)-H(3)',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 5,
                                  'name': 'max q_i <= 3d-1',
                                  'observed': 4,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 6,
                                  'name': 'max p_i <= 3d',
                                  'observed': 6,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 1,
                                  'name': 'last rank of fixed resolution = beta2',
                                  'observed': 1,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 6,
                                  'name': 'beta1 <= 2d+2 (height 3, equal degrees)',
                                  'observed': 3,
                                  'passed': True},
                                 {'applicable': True,
                                  'bound': 3,
                                  'name': 'beta2 <= 2d-1 (height 3, equal degrees)',
                                  'observed': 1,
                                  'passed': True}]},
         'command': 'bounds',
         'd': 2,
         'input': ['s^2 - t', 't^2', '1', '0'],
         'seed': 0,
         'warnings': ['some components are zero (degenerate geometry)']},
    ("resolve", "(s^2 - t, t^2, 1, 0)"):
        {'betti': {'0,2': 4, '1,2': 1, '1,4': 3, '2,6': 1},
         'command': 'resolve',
         'd': 2,
         'generators': ['s^2 - t*u', 't^2', 'u^2', '0'],
         'input': ['s^2 - t', 't^2', '1', '0'],
         'invariants': {'a': 1, 'gamma1': 2, 'gamma2': 2},
         'ranks': [4, 4, 1],
         'seed': 0,
         'shifts': {'first': [-2, -2, -2, -2], 'last': [-6], 'middle': [-2, -4, -4, -4]},
         'warnings': ['some components are zero (degenerate geometry)']},
    ("resolve", "(s^3 + 2*s^2*t - 2*t^3 - 1, -s^3 + 2*t^2, s^3 - 2*s*t - 2*t^2, 3*t^3 - s + 3)"):
        {'betti': {'0,3': 4, '1,5': 3, '1,6': 3, '2,7': 3},
         'command': 'resolve',
         'd': 3,
         'generators': ['s^3 + 2*s^2*t - 2*t^3 - u^3',
                        '-s^3 + 2*t^2*u',
                        's^3 - 2*s*t*u - 2*t^2*u',
                        '3*t^3 - s*u^2 + 3*u^3'],
         'input': ['s^3 + 2*s^2*t - 2*t^3 - 1', '-s^3 + 2*t^2', 's^3 - 2*s*t - 2*t^2',
                   '3*t^3 - s + 3'],
         'invariants': {'a': 3, 'gamma1': 3, 'gamma2': 2},
         'ranks': [4, 6, 3],
         'seed': 0,
         'shifts': {'first': [-3, -3, -3, -3], 'last': [-7, -7, -7],
                    'middle': [-5, -5, -5, -6, -6, -6]},
         'warnings': []},
    ("resolve", "(2*s^3 - s^2*t + 2*s*t^2 + 2*t^3 - 2*s^2 - 2*t^2 - 2*s, s^2*t - s*t^2 - 3*t, "
                "-2*t + 3, -2*s^2 + s)"):
        {'betti': {'0,3': 4, '1,5': 3, '1,6': 3, '2,7': 3},
         'command': 'resolve',
         'd': 3,
         'generators': ['2*s^3 - s^2*t + 2*s*t^2 + 2*t^3 - 2*s^2*u - 2*t^2*u - 2*s*u^2',
                        's^2*t - s*t^2 - 3*t*u^2',
                        '-2*t*u^2 + 3*u^3',
                        '-2*s^2*u + s*u^2'],
         'input': ['2*s^3 - s^2*t + 2*s*t^2 + 2*t^3 - 2*s^2 - 2*t^2 - 2*s',
                   's^2*t - s*t^2 - 3*t',
                   '-2*t + 3',
                   '-2*s^2 + s'],
         'invariants': {'a': 3, 'gamma1': 3, 'gamma2': 2},
         'ranks': [4, 6, 3],
         'seed': 0,
         'shifts': {'first': [-3, -3, -3, -3], 'last': [-7, -7, -7],
                    'middle': [-5, -5, -5, -6, -6, -6]},
         'warnings': []},
}


@pytest.mark.parametrize("text", sorted(GOLDEN))
def test_pd2_document_is_byte_identical(text):
    doc, code, _ = run("compute", parse_parametrization(text, seed=0))
    assert code == 0
    assert doc["branch"] == "pd2"
    expected = json.dumps(GOLDEN[text], sort_keys=True, indent=2)
    assert json.dumps(doc, sort_keys=True, indent=2) == expected


@pytest.mark.parametrize("command,text", sorted(GOLDEN_BY_COMMAND))
def test_document_is_byte_identical(command, text):
    doc, code, _ = run(command, parse_parametrization(text, seed=0))
    assert code == 0
    expected = json.dumps(GOLDEN_BY_COMMAND[(command, text)], sort_keys=True, indent=2)
    assert json.dumps(doc, sort_keys=True, indent=2) == expected


CORPUS_DIGESTS = {  # one digest per seed, seeds 1-3
    ("bounds", "bounds_d3"): (
        "b7f7d83889a0ba619bdecf38e1ff3e78e9e684a1b5f5420cf8e53cec468e4427",
        "caffbfbdea0763f35d73199cb68493bf06325d6284f974dcaca908bb79fbfa7a",
        "8c497371fb3405a5bbe47cae1a0214515ba50d99c7d398a143bc2b5dbad84558",
    ),
    ("bounds", "full_d2"): (
        "4995e7fdeaed9d70a6a65d77b440a7d0e35c3ceaba5b3938bb735099f7946dfc",
        "a41abddb1447b5cf1ec9f587d6b51227703cd8e68be9ba7ef89800c5f2e8f7c6",
        "1fc59f1b70e138f2d1960e64fbe3aa7425abef149c732a62704f49957cb2d470",
    ),
    ("bounds", "mixed"): (
        "2f431a5ed220872912e0fd8e7cdf526379956ec2092554a24c129d5da43f380b",
        "3190af53037f6c98ff857eb9ffac2e1816cda37c063a48355f738f5d1b69a414",
        "c778947ce3e20fab8e94623a48b3fd7a98dece73f65ceaf3518144a4eca1d884",
    ),
    ("compute", "full_d2"): (
        "3ef2d247b76f0c140c6d924525590f81d8bc9b6b08af0d6141d277d6cb0f1c13",
        "705bf046dadca1ee4c5754cced45f5557c7bb79bc793f9c24afc7a43448a82d1",
        "922bdf4d0945e08fa60d54f70d4726df55b64074d83e586ad9ba73f2aae2c275",
    ),
    ("compute", "mixed"): (
        "d07e2e3598b65922923e43d1a04b0a8e602197f8aebe375177e2c5095698fea5",
        "db97b10049c84e94d6aee3436e47ae7bd913a9642d6ab4f42097ea237a96761e",
        "c2845d811fdc8e50ce4747aafb6ee066f746ac3409bad2f2815a98016bc90b3a",
    ),
    ("resolve", "bounds_d3"): (
        "b7c9ed85cd194eb759eff8c3ecf09ff54208a702ea3668474e721942a4269e40",
        "9adb80582d85b451f0e2b479af0f61e656ee3deeee2a1a1482223850159e9ed2",
        "118b839c95125ffda52bc329b0fe908ca02da871aca2ed437957901fb2926308",
    ),
    ("resolve", "full_d2"): (
        "e8926b388f48941659575c982cb3827e712afc8105481bc78d90718d9fe4260f",
        "c027159234ef071be136b7214c2a78a969422ba0676101a3d2752d1e20508296",
        "3281dd152a7a2e985f51cc741dd87f87c4f96028e38146984f19fdc0e2128cee",
    ),
    ("resolve", "mixed"): (
        "9f50ad10ad5f30562e755b8d150589bedab9992cc31152f30a535b16d461feb3",
        "37275bc32a38cea694ce50c8b74b187f41f1dd9ef02b9cb96173bc2396550eeb",
        "0b9630b0b7bb4187ed0c00c712a424b3b7d47fd9e64d1851ab8500bc65335e5b",
    ),
}


@pytest.mark.parametrize("command,workload", sorted(CORPUS_DIGESTS))
def test_benchmark_corpus_documents_are_byte_identical(command, workload):
    digests = []
    for seed in (1, 2, 3):
        digest = hashlib.sha256()
        for item in benchmark_corpus().build(workload, seed):
            doc, code, _ = run(command, parse_parametrization(item.text, item.seed))
            assert code == 0, (seed, item.key)
            digest.update(json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n")
        digests.append(digest.hexdigest())
    assert tuple(digests) == CORPUS_DIGESTS[command, workload]


COMPLETION_DIGESTS = {
    13: "8422f4a2491a4bc3ca7cc5f1d528cb0ce585d2c8ae2e484405543f327ded0315",
    14: "843f601c2bc7843242ff88e75ade4eca19dcd1202155bfde5f7fb408603810fd",
    15: "b734af72dba03ad6b5a97c1cec233febc880bed6ee93b6157eac3fea4e07878d",
    17: "b8c9c7d7b2efe7be836f5e5de19d46373a8f268758496d925f0a9bf32b7e11d9",
    23: "fac6f12842a32e6761a819adaee3c9cb8b94e1ee6559eb0902a1a503b53d9713",
    25: "47f3c9d41199d3aa3b0c6809e4cd34207d9240bb285984e54f162b21bdbb0a5d",
    32: "591419c084cadb53f869ed9c8b2dd4c21219979cb7b5f3cb4b16d9b29e47da1f",
    34: "3f5ffc427d3df2f0b994b03b4c951a69bde93ede070c060fe3b3951dfbadcba7",
    35: "ee615deacf547d6a0422f20164ead368e1d56161928c921f4179711533d9658e",
    36: "eb7c7fc92057d0906b87a52573044037d63bcdb1ca148f5b6c6dc9f109474bf3",
    40: "128948c60edb74c65e093b33d3caf69e35be9815b8098866bacdacfa165403e3",
}


@pytest.mark.parametrize("index", sorted(COMPLETION_DIGESTS))
def test_graded_completion_documents_are_byte_identical(index):
    corpus = benchmark_corpus()
    text = corpus.tuple_text(corpus._full_degree_member(index, 2))
    doc, code, _ = run("compute", parse_parametrization(text, seed=0))
    assert code == 0
    assert doc["completion"] is not None
    text = json.dumps(doc, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == COMPLETION_DIGESTS[index]


RECIPE_DIGEST = "e735f24c514ebcd6956f83f4df78ac99939585933d9458508f15f43592bdbfb9"


def test_recipe_and_draw_documents_are_byte_identical():
    corpus = benchmark_corpus()
    d2 = [corpus._full_degree_member(i, 2) for i in range(1, 41)]
    d3 = [corpus._full_degree_member(i, 3) for i in range(1, 13)]
    digest = hashlib.sha256()
    all_three = ("compute", "resolve", "bounds")
    for commands, members in ((all_three, d2 + corpus._mixed_members(50)),
                              (("resolve", "bounds"), d3)):
        for comps in members:
            text = corpus.tuple_text(comps)
            for command in commands:
                doc, code, _ = run(command, parse_parametrization(text, seed=0))
                assert code == 0, (command, text)
                digest.update(json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n")
    assert digest.hexdigest() == RECIPE_DIGEST


MAPS_DIGEST = "b058973f39105b85a54ba809125c442e81cd273f992c3c7db5b27dda75d807c5"


def test_recipe_and_draw_resolution_maps_are_identical():
    corpus = benchmark_corpus()
    rows = ([corpus._full_degree_member(i, 2) for i in range(1, 41)] + corpus._mixed_members(50)
            + [corpus._full_degree_member(i, 3) for i in range(1, 13)]
            + [corpus._full_degree_member(i, 4) for i in range(1, 4)])
    digest = hashlib.sha256()
    for comps in rows:
        res = resolve(validate(parse_parametrization(corpus.tuple_text(comps), seed=0).polys))
        digest.update(f"{res.d1}\n{res.q}\n{res.d2}\n{res.p}\n".encode())
    assert digest.hexdigest() == MAPS_DIGEST
