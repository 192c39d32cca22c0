from chromsym import selfcheck


def test_every_selfcheck_holds_up_to_four():
    failed = [name for name, check in selfcheck.CHECKS if check(4) is not True]
    assert failed == []
