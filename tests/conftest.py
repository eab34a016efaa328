import pytest

from ssdpsem import corpus, pipeline, sentiment
from ssdpsem.corpus import Instance


@pytest.fixture(scope="session")
def lexicon():
    return sentiment.load_lexicon()


@pytest.fixture(scope="session")
def small_manifest():
    return corpus.default_manifest(seed=5, train=80, dev=24, test=24)


@pytest.fixture(scope="session")
def small_splits(small_manifest):
    return corpus.synthesize_corpus(small_manifest, 0.9)


@pytest.fixture(scope="session")
def small_train(small_splits, lexicon):
    """small_splits["train"] annotated with the default ISL signal."""
    prepared, _ = pipeline.annotate(small_splits["train"], lexicon, "ISL")
    return prepared


def chain_instance(n, relation="profit_of", subj=(0, 0), obj=None, sentiment=None):
    """A left-to-right chain tree: token i+1 headed by token i, root at 0."""
    obj = obj if obj is not None else (n - 1, n - 1)
    return Instance(
        id=f"chain{n}", tokens=tuple(f"w{i}" for i in range(n)), heads=tuple(range(-1, n - 1)),
        deprels=("root",) + ("dep",) * (n - 1), subj=subj, obj=obj,
        relation=relation, sentiment=sentiment,
    )
