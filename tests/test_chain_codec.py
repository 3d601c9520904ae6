"""The chain codec against its original quadratic definitions.

``ref_*`` below are the definitions the codec had before records carried
their own bytes: they encode every record from its fields, parse every
record in full and re-encode every prefix to check a chain.  The codec in
``lockstep.cyclecoin`` must agree with them byte for byte, and must reject
exactly the bytes they reject.  ``encode_records`` keeps what it encodes
for ``decode_records``, and ``parse_wire`` answers from a shared table;
both must agree with a fresh parse on a hit and on a miss alike.  The
caps of those tables are tested with every other table's, in
``tests/test_simnet.py``.
"""

import pytest
from hypothesis import given, strategies as st

from lockstep import cyclecoin
from lockstep.cyclecoin import (
    Record,
    TAG_BASE,
    TAG_PATH,
    TAG_X,
    TAG_Y,
    append_record,
    chain_signatures_ok,
    decode_records,
    encode_records,
    parse_wire,
    record_content,
)
from lockstep.simnet import (
    ByteReader,
    CodecError,
    SignatureOracle,
    enc_bytes,
    enc_int,
    enc_str,
)

KNOWN_TAGS = (TAG_BASE, TAG_PATH, TAG_X, TAG_Y)


def ref_encode_records(records):
    parts = [enc_int(len(records))]
    for rec in records:
        parts.append(enc_str(rec.tag))
        parts.append(enc_int(rec.signer))
    return b"".join(parts)


def ref_decode_records(data):
    reader = ByteReader(data)
    count = reader.read_int()
    if count < 0:
        raise CodecError("negative record count")
    records = []
    for _ in range(count):
        tag = reader.read_str()
        signer = reader.read_int()
        if tag not in KNOWN_TAGS:
            raise CodecError(f"unknown record tag {tag!r}")
        records.append(Record(tag, signer))
    if not reader.at_end():
        raise CodecError("trailing bytes after records")
    return tuple(records)


def ref_record_content(prefix, tag):
    return enc_bytes(ref_encode_records(prefix)) + enc_str(tag)


def ref_chain_signatures_ok(records, oracle):
    return all(oracle.verify(rec.signer, ref_record_content(records[:k], rec.tag))
               for k, rec in enumerate(records))


def _decoded(decode, data):
    try:
        return decode(data)
    except CodecError:
        return CodecError


signers = st.integers(min_value=-2**63, max_value=2**63 - 1)
small_signers = st.integers(min_value=-2, max_value=6)
tags = st.one_of(st.sampled_from(KNOWN_TAGS), st.text(max_size=4))
records = st.lists(st.builds(Record, tags, st.one_of(small_signers, signers)),
                   max_size=8).map(tuple)
known_records = st.lists(st.builds(Record, st.sampled_from(KNOWN_TAGS),
                                   st.one_of(small_signers, signers)),
                         max_size=8).map(tuple)


@given(records, tags)
def test_encoding_and_signed_content_match_the_reference(recs, tag):
    assert encode_records(recs) == ref_encode_records(recs)
    assert record_content(recs, tag) == ref_record_content(recs, tag)
    for rec in recs:
        assert rec.enc == enc_str(rec.tag) + enc_int(rec.signer)


@given(records)
def test_decoding_a_clean_encoding_matches_the_reference(recs):
    data = ref_encode_records(recs)
    # the second decode finds every record in the shared table
    assert _decoded(decode_records, data) == _decoded(ref_decode_records, data)
    assert _decoded(decode_records, data) == _decoded(ref_decode_records, data)


@st.composite
def mangled(draw):
    data = bytearray(ref_encode_records(draw(known_records)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(("cut", "flip", "insert", "append",
                                     "recount", "splice")))
        pos = draw(st.integers(min_value=0, max_value=len(data)))
        if kind == "cut":
            del data[pos:]
        elif kind == "flip" and pos < len(data):
            data[pos] ^= draw(st.integers(min_value=1, max_value=255))
        elif kind == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=24))
        elif kind == "append":
            data += draw(st.binary(min_size=1, max_size=24))
        elif kind == "recount":
            data[0:12] = enc_int(draw(st.integers(min_value=-3, max_value=10)))
        elif kind == "splice":
            data[pos:pos] = ref_encode_records(draw(records))[12:]
    return bytes(data)


@given(st.one_of(mangled(), st.binary(max_size=64)))
def test_decoding_mangled_bytes_matches_the_reference(data):
    expected = _decoded(ref_decode_records, data)
    assert _decoded(decode_records, data) == expected
    assert _decoded(decode_records, data) == expected


@st.composite
def tampered_chains(draw):
    """A signed chain, then records cut, swapped, replaced or re-signed."""
    oracle = SignatureOracle()
    chain = ()
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        chain = append_record(oracle, draw(small_signers), chain,
                              draw(st.sampled_from(KNOWN_TAGS)))
    chain = list(chain)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if not chain:
            break
        i = draw(st.integers(min_value=0, max_value=len(chain) - 1))
        j = draw(st.integers(min_value=0, max_value=len(chain) - 1))
        kind = draw(st.sampled_from(("cut", "swap", "replace", "re-sign")))
        if kind == "cut":
            del chain[i]
        elif kind == "swap":
            chain[i], chain[j] = chain[j], chain[i]
        elif kind == "replace":
            chain[i] = Record(draw(tags), draw(small_signers))
        else:
            # a valid signature, but over the prefix as it stands now
            rec = Record(draw(st.sampled_from(KNOWN_TAGS)), draw(small_signers))
            oracle.sign(rec.signer, ref_record_content(tuple(chain[:j]), rec.tag))
            chain[i] = rec
    return tuple(chain), oracle


@given(tampered_chains())
def test_chain_check_matches_the_reference(case):
    chain, oracle = case
    assert chain_signatures_ok(chain, oracle) == ref_chain_signatures_ok(chain, oracle)


def test_decoded_records_are_shared():
    data = encode_records((Record(TAG_BASE, 0), Record(TAG_X, 0)))
    first, second = decode_records(data), decode_records(data)
    assert all(a is b for a, b in zip(first, second))


@given(records)
def test_an_encoding_decodes_as_a_fresh_parse_and_only_a_good_one_is_kept(
        recs):
    data = encode_records(recs)
    assert _decoded(decode_records, data) == _decoded(ref_decode_records, data)
    known = all(rec.tag in KNOWN_TAGS for rec in recs)
    assert (data in cyclecoin._encodings) == known


def ref_parse_wire(payload):
    try:
        reader = ByteReader(payload)
        kind = reader.read_str()
        body = reader.read_bytes()
        if kind not in cyclecoin._KINDS or not reader.at_end():
            return None
        return kind, ref_decode_records(body), body
    except CodecError:
        return None


@st.composite
def wires(draw):
    kind = draw(st.one_of(st.sampled_from(cyclecoin._KINDS),
                          st.text(max_size=6)))
    body = draw(st.one_of(mangled(), st.builds(ref_encode_records,
                                               known_records)))
    data = enc_str(kind) + enc_bytes(body)
    if draw(st.booleans()):
        data = draw(st.sampled_from((data[:-1], data + b"\x00", data[1:])))
    return data


@given(st.one_of(wires(), st.binary(max_size=64)))
def test_a_wire_parses_as_a_fresh_parse_and_only_a_good_one_is_kept(data):
    """``parse_wire`` raises where the reference returns None."""
    expected = ref_parse_wire(data)
    parse_wire.cache_clear()
    # the second call is answered from the table when the first was kept
    for _ in range(2):
        if expected is None:
            with pytest.raises(CodecError):
                parse_wire(data)
        else:
            assert parse_wire(data) == expected
    assert parse_wire.cache_info().currsize == (expected is not None)
