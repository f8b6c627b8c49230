"""Security-property tests: confidentiality and freshness at the NVM level.

These test the threat model directly: the physical attacker sees only
NVM contents (ciphertext + metadata), so the ciphertext must leak nothing
usable — no plaintext equality patterns across blocks or versions, no
low-entropy structure — and freshness must hold (no OTP reuse).
"""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security.engine import SecureMemory


def blk(i):
    return bytes([i % 256]) * 64


class TestCiphertextIndistinguishability:
    def test_same_plaintext_different_blocks_differs(self):
        """Address-bound pads: identical plaintexts at different addresses
        produce unrelated ciphertexts (no ECB-style patterns)."""
        memory = SecureMemory(atomic=True)
        memory.persist_block(0, blk(7))
        memory.persist_block(1, blk(7))
        a = memory.nvm.read_block(0)
        b = memory.nvm.read_block(1)
        assert a != b
        # No shared 8-byte runs either.
        chunks_a = {a[i : i + 8] for i in range(0, 64, 8)}
        chunks_b = {b[i : i + 8] for i in range(0, 64, 8)}
        assert not chunks_a & chunks_b

    def test_same_plaintext_rewritten_differs(self):
        """Counter freshness: re-persisting the same value yields a new
        ciphertext (an observer cannot detect 'value unchanged')."""
        memory = SecureMemory(atomic=True)
        memory.persist_block(5, blk(9))
        first = memory.nvm.read_block(5)
        memory.persist_block(5, blk(9))
        assert memory.nvm.read_block(5) != first

    def test_low_entropy_plaintext_yields_high_entropy_ciphertext(self):
        """An all-zero block must not leave structure in the NVM image."""
        memory = SecureMemory(atomic=True)
        memory.persist_block(3, bytes(64))
        ciphertext = memory.nvm.read_block(3)
        # At least ~50 distinct byte values in 64 bytes would be suspicious
        # by chance; require reasonable spread instead of runs of a value.
        counts = collections.Counter(ciphertext)
        assert max(counts.values()) <= 4
        assert ciphertext != bytes(64)

    @given(st.binary(min_size=64, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_xor_of_versions_never_reveals_plaintext_diff_of_zero(self, payload):
        """Because the pad changes every version, the XOR of two stored
        versions of the *same* plaintext is never the zero block (which
        would reveal 'unchanged')."""
        memory = SecureMemory(atomic=True)
        memory.persist_block(0, payload)
        v1 = memory.nvm.read_block(0)
        memory.persist_block(0, payload)
        v2 = memory.nvm.read_block(0)
        assert bytes(x ^ y for x, y in zip(v1, v2)) != bytes(64)


class TestPadFreshness:
    def test_no_nonce_reuse_over_many_writes(self):
        """Every OTP generation across a busy page uses a fresh nonce."""
        memory = SecureMemory(atomic=True)
        generate = memory.engine.otp.generate
        pads = []

        def spy(addr, major, minor):
            pads.append((addr, major, minor))
            return generate(addr, major, minor)

        memory.engine.otp.generate = spy
        for i in range(300):
            memory.persist_block(i % 6, blk(i))
        # Encryption-path nonces (ignoring decrypt-side regenerations, the
        # even indices): each (addr, major, minor) pair appears at most
        # twice (once encrypt, once later decrypt during re-encryption).
        counts = collections.Counter(pads)
        assert max(counts.values()) <= 2

    def test_overflow_changes_all_pads_in_page(self):
        """After a major-counter bump, every block's ciphertext changed."""
        from repro.security.counters import MINOR_LIMIT

        memory = SecureMemory(atomic=True)
        memory.persist_block(0, blk(1))
        memory.persist_block(2, blk(2))
        before_0 = memory.nvm.read_block(0)
        before_2 = memory.nvm.read_block(2)
        for i in range(MINOR_LIMIT + 1):
            memory.persist_block(1, blk(i))
        assert memory.nvm.read_block(0) != before_0
        assert memory.nvm.read_block(2) != before_2
        # And both still decrypt correctly.
        assert memory.recover_block(0).plaintext == blk(1)
        assert memory.recover_block(2).plaintext == blk(2)
