import numpy as np
import pytest

from dddr.corpus import Corpus
from dddr.rng import stream
from dddr.shapes import CLIENT_STYLE, PRETRAIN_STYLE, ShapeworldSpec, generate_shapeworld
from dddr.tasks import (
    PartitionSpec,
    build_plan,
    holdout_split,
    largest_remainder_counts,
    partition_class,
    partition_task,
    split_tasks,
)
from tests.oracle import train_oracle


def test_shapeworld_deterministic():
    spec = ShapeworldSpec(samples_per_class=5, seed=3)
    a = generate_shapeworld(spec)
    b = generate_shapeworld(spec)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_shapeworld_counts_and_labels():
    spec = ShapeworldSpec(classes=ShapeworldSpec().classes[:4], samples_per_class=50, seed=1)
    corpus = generate_shapeworld(spec)
    assert len(corpus) == 200
    assert corpus.classes() == [0, 1, 2, 3]


def test_shapeworld_rejects_tiny_images():
    with pytest.raises(ValueError, match="too small"):
        ShapeworldSpec(image_hw=(6, 6))


def test_pretrain_style_differs_from_client_style():
    a = generate_shapeworld(ShapeworldSpec(samples_per_class=8, style=PRETRAIN_STYLE, seed=2))
    b = generate_shapeworld(ShapeworldSpec(samples_per_class=8, style=CLIENT_STYLE, seed=2))
    assert a.images.tobytes() != b.images.tobytes()


def test_oracle_separates_classes():
    spec = ShapeworldSpec(classes=ShapeworldSpec().classes[:4], samples_per_class=100,
                          style=CLIENT_STYLE, seed=12)
    oracle = train_oracle(generate_shapeworld(spec), seed=3, epochs=40)
    assert oracle.holdout_accuracy >= 0.95


def test_split_tasks_cifar_protocol_shape():
    sets = split_tasks(list(range(100)), 5, seed=0)
    assert len(sets) == 5
    assert all(len(s) == 20 for s in sets)
    assert sorted(c for s in sets for c in s) == list(range(100))


def test_split_tasks_deterministic():
    a = split_tasks(list(range(8)), 2, seed=9)
    b = split_tasks(list(range(8)), 2, seed=9)
    assert a == b
    assert all(len(s) == 4 for s in a)


def test_split_tasks_rejects_uneven():
    with pytest.raises(ValueError, match="remainder 2"):
        split_tasks(list(range(10)), 4, seed=0)


def test_holdout_split_counts():
    images = np.zeros((200, 1, 8, 8), dtype=np.float32)
    labels = np.repeat(np.arange(4), 50)
    train, test = holdout_split(Corpus(images, labels), 0.2, seed=1)
    assert test.size == 40 and train.size == 160
    for c in range(4):
        assert np.sum(labels[test] == c) == 10


def test_holdout_split_deterministic_and_disjoint():
    images = np.zeros((60, 1, 8, 8), dtype=np.float32)
    labels = np.repeat(np.arange(3), 20)
    corpus = Corpus(images, labels)
    a = holdout_split(corpus, 0.25, seed=5)
    b = holdout_split(corpus, 0.25, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not set(a[0]) & set(a[1])


def test_holdout_split_rejects_bad_fraction():
    corpus = Corpus(np.zeros((4, 1, 8, 8), dtype=np.float32), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError):
        holdout_split(corpus, 1.0, seed=0)


def test_holdout_split_rejects_singleton_class():
    corpus = Corpus(np.zeros((3, 1, 8, 8), dtype=np.float32), np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="class 1"):
        holdout_split(corpus, 0.5, seed=0)


def test_iid_partition_even_split():
    spec = PartitionSpec(mode="iid", clients=5, seed=0)
    shards = partition_class(np.arange(100), spec, label=0)
    assert [s.size for s in shards] == [20] * 5
    assert sorted(np.concatenate(shards)) == list(range(100))


def test_dirichlet_partition_conserves_and_is_deterministic():
    spec = PartitionSpec(mode="dirichlet", alpha=0.5, clients=5, seed=4)
    a = partition_class(np.arange(100), spec, label=3)
    b = partition_class(np.arange(100), spec, label=3)
    assert sum(s.size for s in a) == 100
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    union = np.sort(np.concatenate(a))
    assert np.array_equal(union, np.arange(100))


def test_dirichlet_concentration_at_high_alpha():
    spec = PartitionSpec(mode="dirichlet", alpha=1000.0, clients=5, seed=8)
    shards = partition_class(np.arange(10_000), spec, label=0)
    for s in shards:
        assert abs(s.size - 2000) <= 100  # within 5% of even


def test_largest_remainder_allocates_exactly():
    rng = stream(10, "lr")
    for _ in range(50):
        p = rng.dirichlet(np.full(7, 0.3))
        counts = largest_remainder_counts(p, 123)
        assert counts.sum() == 123
        assert (counts >= 0).all()


def test_partition_task_multiset_equality(client_corpus):
    train, _ = holdout_split(client_corpus, 0.2, seed=2)
    spec = PartitionSpec(mode="dirichlet", alpha=0.5, clients=3, seed=2)
    labels = [0, 1, 2, 3]
    shards = partition_task(client_corpus, train, labels, spec)
    union = np.sort(np.concatenate(shards))
    task_train = np.sort(train[np.isin(client_corpus.labels[train], labels)])
    assert np.array_equal(union, task_train)


def test_build_plan_invariants(client_corpus):
    spec = PartitionSpec(mode="dirichlet", alpha=0.5, clients=3, seed=1)
    plan = build_plan(client_corpus, 2, spec, 0.2, seed=1)
    flat = [c for ys in plan.label_sets for c in ys]
    assert sorted(flat) == client_corpus.classes()
    assert len(set(plan.label_sets[0]) & set(plan.label_sets[1])) == 0
    round_trip = plan.to_jsonable()
    from dddr.tasks import TaskSequencePlan

    restored = TaskSequencePlan.from_jsonable(round_trip)
    assert restored.label_sets == plan.label_sets
    for t in range(2):
        for j in range(3):
            assert np.array_equal(restored.client_shards[t][j], plan.client_shards[t][j])
