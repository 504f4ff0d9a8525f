"""The ledger conditions of the paper's FEW and MANY invariants.  A run that
breaks one goes on and records the break, so a test that expects a clean
run asserts them itself."""


def assert_few_ledger_ok(info: dict) -> None:
    """No FEW loan was clipped to its colour's bridge credits, and the
    starting cost minus loans is within the FEW bound."""
    assert not any("loan clipped" in w for w in info["waivers"])
    assert info["initial_bound_ok"]


def assert_few_run_ok(state) -> None:
    """A finished FEW run: a clean ledger build, and every loan repaid."""
    assert_few_ledger_ok(state.info)
    assert state.led.total_loan() == 0


def assert_many_ledger_ok(info: dict) -> None:
    """The MANY starting cost is within (5/4 - delta) m4 + 5 mr."""
    assert info["bound_ok"]
