import pytest
import ray


def _let_stopped_data_tasks_finish():
    """Keep Ray Data from cancelling its tasks when a dataset stops early.

    Ray Data cancels every in-flight task when an execution ends before its
    input does (``limit``, ``take``, and the ``limit(1)`` that
    ``Dataset.schema()`` runs on an unexecuted plan). In Ray 2.49 a
    ``ray.cancel`` that reaches a task in the instant it completes aborts
    the calling process (``task_manager.cc: Check failed: ... Tried to
    complete task that was not pending``, or ``reference_count.cc: Check
    failed: ... submitted_task_ref_count > 0``); on a loaded one-core host
    this killed the whole pytest process, without a summary, part way
    through ``test_functions.py``. The cancel is dropped here instead: the
    task runs to its end and its unreferenced outputs are freed, and an
    actor pool still releases its actors.
    """
    from ray.data._internal.execution.interfaces import physical_operator

    def _cancel(self, force):
        pass

    physical_operator.OpTask._cancel = _cancel


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    _let_stopped_data_tasks_finish()
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus():
    from search_engine_ray import datagen

    return datagen.transcripts_files("sf0.001")


@pytest.fixture(scope="session")
def tiny_index(ray_session, tiny_corpus, tmp_path_factory):
    """One full index build shared by the whole session."""
    from search_engine_ray.config import BuildConfig
    from search_engine_ray.pipelines import build

    out = str(tmp_path_factory.mktemp("idx"))
    cfg = BuildConfig(
        input_paths=tiny_corpus, out_dir=out, n_partitions=3, concurrency=2
    )
    manifest = build.build_index(cfg)
    return {"out_dir": out, "manifest": manifest, "files": tiny_corpus}


@pytest.fixture(scope="session")
def duck():
    import duckdb

    con = duckdb.connect()
    yield con
    con.close()


@pytest.fixture
def evaluators_agree(monkeypatch):
    """``check(engine, text, scope, k, conjunctive=False)``: runs the
    windowed and the candidate-driven exact evaluators directly (outside
    ``score_blockmax``'s route rule; the candidate-driven one with its
    df-ratio gate off, so it answers small corpora too), asserts
    that each one that answers returns the exhaustive scorer's top-k
    ids, float64 scores and count bit for bit, and returns the names of
    the evaluators that answered."""
    import numpy as np

    def check(engine, text, scope, k, conjunctive=False):
        monkeypatch.setattr(engine, "_CAND_REST_RATIO", 0)
        terms, err = engine.plan(text)
        if err or not k:
            return set()
        ids, scores = engine.score_exhaustive(terms, scope, conjunctive)
        want_ids, want_scores = engine._topk(ids, scores, k)
        term_list, lut = engine._scoring_inputs(terms, scope)
        got = {"windowed": engine._score_windowed(terms, term_list, k, lut, conjunctive)}
        if not conjunctive and len(terms) > 1:
            got["candidate_driven"] = engine._score_candidate_driven(terms, term_list, k, lut)
        answered = set()
        for name, g in got.items():
            if g is None:
                continue
            assert np.array_equal(g[0], want_ids), (name, text)
            assert np.array_equal(g[1], want_scores), (name, text)  # exact float64
            assert g[2] == len(ids), (name, text)
            answered.add(name)
        return answered

    return check
