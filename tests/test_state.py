"""Producer world state: the undo journal and state roots."""

import random

from evmsleuth.fixtures.state import (
    EMPTY_CODE_HASH,
    GlobalState,
    state_root,
    storage_root,
)

# -- GlobalState --


def test_reads_never_create_accounts():
    state = GlobalState()
    assert state.balance_of(0x1) == 0
    assert 0x1 not in state.accounts
    assert state.storage_at(0x1, 0) == 0
    assert state.code_of(0x1) == b""
    assert state.accounts == {}


def test_zero_storage_write_deletes_key():
    state = GlobalState()
    state.set_storage(0xA, 5, 1)
    state.set_storage(0xA, 5, 0)
    assert 5 not in state.accounts[0xA].storage
    assert state.storage_at(0xA, 5) == 0


def test_journal_revert_restores_everything():
    state = GlobalState()
    state.set_balance(0xA, 100)
    state.set_storage(0xA, 1, 7)
    before = state_root(state)
    mark = state.checkpoint()

    state.set_balance(0xA, 5)
    state.bump_nonce(0xA)
    state.set_storage(0xA, 1, 0)
    state.set_storage(0xA, 2, 9)
    state.set_balance(0xB, 50)  # creates 0xB
    assert state_root(state) != before

    state.revert_to(mark)
    assert state_root(state) == before
    assert 0xB not in state.accounts
    assert state.storage_at(0xA, 1) == 7
    assert state.accounts[0xA].nonce == 0


def test_nested_checkpoints():
    state = GlobalState()
    state.set_storage(0xA, 1, 1)
    outer = state.checkpoint()
    state.set_storage(0xA, 1, 2)
    inner = state.checkpoint()
    state.set_storage(0xA, 1, 3)
    state.revert_to(inner)
    assert state.storage_at(0xA, 1) == 2
    state.revert_to(outer)
    assert state.storage_at(0xA, 1) == 1


def test_clone_is_independent():
    state = GlobalState()
    state.set_balance(0xA, 10)
    state.install_code(0xC, b"\x00")
    twin = state.clone()
    twin.set_balance(0xA, 99)
    twin.set_storage(0xC, 1, 1)
    assert state.balance_of(0xA) == 10
    assert state.storage_at(0xC, 1) == 0
    assert twin.code_of(0xC) == state.code_of(0xC)


def test_install_code_roundtrip():
    state = GlobalState()
    h = state.install_code(0xC, b"\x60\x01")
    assert state.code_of(0xC) == b"\x60\x01"
    assert state.accounts[0xC].code_hash == h != EMPTY_CODE_HASH


# -- state roots --


def test_empty_state_golden_root():
    # frozen by the canonical-serialization doc: digest of the bare domain tag
    assert state_root(GlobalState()).hex() == (
        "9438d8a4458031fd1d0beab61093e543e75b9ec7f1ef5f7793bf43ad4338b734"
    )


def test_root_invariant_under_insertion_order():
    one = GlobalState()
    one.set_balance(0xA, 1)
    one.set_balance(0xB, 2)
    one.set_storage(0xA, 3, 4)
    one.set_storage(0xA, 1, 2)

    two = GlobalState()
    two.set_storage(0xA, 1, 2)
    two.set_balance(0xB, 2)
    two.set_storage(0xA, 3, 4)
    two.set_balance(0xA, 1)

    assert state_root(one) == state_root(two)


def test_root_sensitive_to_single_storage_value():
    one = GlobalState()
    one.set_storage(0xA, 1, 2)
    two = GlobalState()
    two.set_storage(0xA, 1, 3)
    assert state_root(one) != state_root(two)


def test_root_sensitive_to_account_presence():
    one = GlobalState()
    one.ensure_account(0xA)
    assert state_root(one) != state_root(GlobalState())


def test_zero_entries_do_not_affect_storage_root():
    assert storage_root({5: 0}) == storage_root({})
    assert storage_root({5: 1, 6: 0}) == storage_root({5: 1})


def test_root_injective_on_random_corpus():
    rng = random.Random(31)
    roots = set()
    count = 200
    for i in range(count):
        state = GlobalState()
        for _ in range(rng.randrange(1, 5)):
            addr = rng.randrange(1, 64)
            choice = rng.random()
            if choice < 0.4:
                state.set_balance(addr, rng.randrange(0, 1000))
            elif choice < 0.8:
                state.set_storage(addr, rng.randrange(0, 8), rng.randrange(1, 100))
            else:
                state.bump_nonce(addr)
        roots.add(state_root(state))
    # distinct states may collide only by construction of duplicates, so
    # merely require a healthy spread and no mass collision
    assert len(roots) > count * 0.8
