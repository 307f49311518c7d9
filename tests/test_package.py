import qperc

REMOVED = ("ClassicalResult", "classical_perceptron_train", "oracle_uf", "BadTableLength")


def test_every_exported_name_resolves_once():
    assert len(set(qperc.__all__)) == len(qperc.__all__)
    for name in qperc.__all__:
        assert hasattr(qperc, name), name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in qperc.__all__
        assert not hasattr(qperc, name), name
