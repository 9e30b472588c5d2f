"""Named mutants of the library, each with the tests that must kill it.

A mutant is applied with ``monkeypatch``: to a constant or attribute, or as
a source-token replacement in one function.  The token must occur exactly
once in the function's source (``inspect.getsource``), so a mutant whose
code has moved fails here instead of passing unmutated.  The mutated source
is compiled in the function's module and bound wherever the original is
bound: on its class, or on every loaded module that imported it.

Each killer is a test function of this suite, called with its parameters.
It must pass on the library as it is and fail under the mutant.  ``kind``
says what kills a mutant: ``check``, a test of the behaviour the mutant
breaks, or ``pin``, only a unit test of the rule and byte pins of the
output, with no history-independence check among its killers (ROADMAP
item 2 keeps the two apart).
"""

from __future__ import annotations

import __future__
import importlib
import inspect
import sys
import textwrap
from typing import Callable, NamedTuple

import pytest

import hidict.dynamics
import hidict.structures
from hidict.hiverify import shi_check
from hidict.pairing import PairedDict
from hidict.structures import CTreap, LTreap, ZipZipTree, _BST, _PrecedenceTree
from hidict.thresholding import ThresholdedDict


def replace_token(func, token: str, replacement: str) -> Callable:
    """A mutant of ``func`` with its one ``token`` replaced, bound in place of
    ``func`` by the returned ``apply(monkeypatch)``."""
    def apply(monkeypatch):
        source = textwrap.dedent(inspect.getsource(func))
        assert source.count(token) == 1, (func.__qualname__, token)
        module = sys.modules[func.__module__]
        code = compile(source.replace(token, replacement), inspect.getsourcefile(func),
                       "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
        scope = {}
        exec(code, vars(module), scope)
        mutant = scope[func.__name__]
        owner_path = func.__qualname__.split(".")[:-1]
        if owner_path:  # a method: bind it on its class
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, func.__name__, mutant)
            return
        for loaded in list(sys.modules.values()):
            if getattr(loaded, func.__name__, None) is func:
                monkeypatch.setattr(loaded, func.__name__, mutant)
    return apply


def set_attr(target, name: str, value) -> Callable:
    def apply(monkeypatch):
        assert hasattr(target, name), name
        monkeypatch.setattr(target, name, value)
    return apply


class Killer(NamedTuple):
    module: str  # a test module of this suite
    test: str
    params: dict


class Mutant(NamedTuple):
    apply: Callable
    kind: str
    killers: tuple


_LONG_SPINE = Killer("test_spine", "test_paired_search_on_a_long_learned_spine",
                     {"bisect_past": 64})
_PAIRED_KILLERS = (
    _LONG_SPINE,
    Killer("test_spine", "test_paired_search_equals_its_two_root_walks", {}),
    Killer("test_pairing", "test_search_tally_matches_tentative_then_fallback", {}),
    Killer("test_search_costs", "test_paired_search_costs_apply_the_budget",
           {"capacity": None, "gamma": 0.5}),
    Killer("test_search_costs", "test_paired_search_costs_apply_the_budget",
           {"capacity": 400, "gamma": 0.5}),
)

MUTANTS = {
    # a rejected insert whose key lies on its unzip path leaves the two
    # halves apart, and the keys of one half unreachable (an L-treap path
    # is all spine, where a present key is found before any unzip)
    "insert-zip-back-removed": Mutant(
        replace_token(_PrecedenceTree.insert, "self._zip(lt, rt)", "None"), "check",
        (Killer("test_structures", "test_duplicates_and_missing_keys_on_a_right_leaning_path",
                {"name": "ZipZipTree", "key_of": int}),)),
    # the L-treap's (f, oracle) printed as a zip-zip pair
    "ltreap-rank-text-as-zipzip": Mutant(
        set_attr(LTreap, "_RANK_TEXT", ZipZipTree._RANK_TEXT), "check",
        (Killer("test_fingerprint", "test_fingerprint_equals_the_two_walk_reference",
                {"name": "l-treap", "key_kind": "int"}),)),
    # an AVL node's height printed without its ``h``
    "avl-height-tag-dropped": Mutant(
        replace_token(_BST._walk, "h{cur.rank}", "{cur.rank}"), "check",
        (Killer("test_fingerprint", "test_avl_fingerprint_equals_its_reference",
                {"key_kind": "int"}),)),
    # every read bisects the spine, a balanced tree's too
    "reads-always-bisect": Mutant(
        set_attr(hidict.structures, "_SPINE_BISECT", 0), "check",
        (Killer("test_spine", "test_balanced_trees_read_from_the_root", {"name": "zipzip"}),)),
    # a search bisects a spine of exactly 64 nodes
    "search-bisects-at-64": Mutant(
        replace_token(_BST.search, "if len(keys) > _SPINE_BISECT:",
                      "if len(keys) >= _SPINE_BISECT:"), "check",
        (Killer("test_spine", "test_right_paths_bisect_once_per_read_past_64_keys",
                {"n": 64}),)),
    # a paired search's learned walk spends one comparison past its budget
    "paired-learned-walk-past-budget": Mutant(
        replace_token(PairedDict.search, "comps < budget", "comps <= budget"), "check",
        _PAIRED_KILLERS),
    # the fallback's walk counts from 0, not from the budget
    "paired-fallback-uncharged": Mutant(
        replace_token(PairedDict.search, "cur = self._root", "comps, cur = 0, self._root"),
        "check", _PAIRED_KILLERS),
    # the fallback is walked after a learned walk that ended within its
    # budget: an absent key is charged the fallback's depth too
    "paired-tandem-exit-skipped": Mutant(
        replace_token(PairedDict.search, "if cur is not None:", "if True:"), "check",
        (Killer("test_spine", "test_paired_search_equals_its_two_root_walks", {}),)),
    # a budgeted search keeps a reply one comparison past its budget
    "search-budgeted-one-past": Mutant(
        replace_token(_BST.search_budgeted, "<= budget:", "<= budget + 1:"),
        "check",
        (Killer("test_spine", "test_right_paths_on_both_sides_of_the_bisection_bound",
                {"n": 65}),
         Killer("test_spine", "test_paired_search_equals_its_two_root_walks", {}))),
    # the pair refuses f = 0 itself, which its capped learned side takes
    "paired-own-estimate-rule": Mutant(
        replace_token(PairedDict.insert, "self.learned.insert(key, f, payload)",
                      "if f <= 0:\n        raise ValueError('paired insert requires f > 0')"
                      "\n    self.learned.insert(key, f, payload)"), "check",
        (Killer("test_pairing", "test_a_capped_pair_takes_a_zero_prediction", {}),)),
    # the strong check keeps the first history's canonical build, so every
    # sampled key set after it is compared to another set's tree
    "shi-canonical-never-rebuilt": Mutant(
        replace_token(shi_check, "if sorted(keys) != built:", "if built is None:"), "check",
        (Killer("test_hiverify", "test_shi_randomized_universe", {}),)),
    # a C-treap takes an estimate whose rank log u / f can be -inf
    "ctreap-overflowing-estimate-taken": Mutant(
        replace_token(CTreap._rank, "_MIN_CTREAP_F <= f <= _MAX_DOUBLE", "0 < f <= _MAX_DOUBLE"),
        "check",
        (Killer("test_refusals", "test_a_c_treap_refuses_an_estimate_whose_rank_overflows",
                {"f": 1e-308}),)),
    # the WHI delete rule's rebuild probability 1/(n+1) for 1/n: no HI
    # check sees it (ROADMAP item 3), only the rule's own test and the
    # verify whi stdout pin
    "whi-delete-one-over-n-plus-one": Mutant(
        replace_token(hidict.dynamics.whi_after_delete, "if u < 1.0 / n:",
                      "if u < 1.0 / (n + 1):"), "pin",
        (Killer("test_dynamics", "test_whi_delete_probabilistic_branch", {}),
         Killer("test_cli_stdout", "test_cli_stdout_bytes",
                {"args": "verify whi --n-list 5,8 --samples 4000"}))),
    # one more scheme draw per WHI delete: the cutoff simulator shares the
    # step, so the dict still matches it, and no HI check sees the shifted
    # draws (ROADMAP item 4); only the golden digest and the verify whi
    # stdout pin
    "whi-delete-extra-draw": Mutant(
        replace_token(hidict.dynamics._CutoffScheme._after_delete,
                      "whi_after_delete(self._n, self.N, ",
                      "whi_after_delete(self._n, self.N, self.rng.random() * 0 + "), "pin",
        (Killer("test_golden", "test_golden_fingerprints_and_comparison_counts", {}),
         Killer("test_cli_stdout", "test_cli_stdout_bytes",
                {"args": "verify whi --n-list 5,8 --samples 4000"}))),
    # a rebuild leaves the ranks of the keys between the two floors as
    # they were: the tree is no longer the fresh build at the new cutoff
    "rebuild-middle-band-not-reranked": Mutant(
        replace_token(ThresholdedDict.rebuild, "elif f < top:", "elif False:"), "check",
        (Killer("test_dynamics", "test_rebuild_equals_fresh_sorted_build", {}),
         Killer("test_dynamics",
                "test_rebuild_boundaries_equal_fresh_build_and_keep_unmoved_ranks", {}))),
    # a paired insert whose fallback fails keeps the key on the learned side
    "paired-failed-insert-keeps-learned-key": Mutant(
        replace_token(PairedDict.insert, "self.learned.delete(key)", "pass"), "check",
        (Killer("test_pairing", "test_an_insert_the_fallback_refuses_leaves_the_learned_side",
                {"capacity": None}),
         Killer("test_pairing", "test_an_insert_the_fallback_refuses_leaves_the_learned_side",
                {"capacity": 64}))),
}


def _run(killer: Killer, capsys):
    test = getattr(importlib.import_module(killer.module), killer.test)
    with pytest.MonkeyPatch.context() as monkeypatch:
        fixtures = {"monkeypatch": monkeypatch, "capsys": capsys}
        wanted = inspect.signature(test).parameters
        test(**killer.params, **{k: v for k, v in fixtures.items() if k in wanted})


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_mutant_is_killed(name, capsys):
    mutant = MUTANTS[name]
    assert mutant.kind in ("check", "pin") and mutant.killers
    for killer in mutant.killers:
        _run(killer, capsys)
        with pytest.MonkeyPatch.context() as monkeypatch:
            mutant.apply(monkeypatch)
            with pytest.raises((Exception, pytest.fail.Exception)):
                _run(killer, capsys)
        _run(killer, capsys)  # the mutant is gone again


def test_a_stale_token_fails_loudly():
    apply = replace_token(_BST.search, "no such token", "x")
    with pytest.MonkeyPatch.context() as monkeypatch:
        with pytest.raises(AssertionError):
            apply(monkeypatch)
