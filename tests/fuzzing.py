"""Random edits of a valid file's bytes, for fuzzing the file readers."""

from hypothesis import strategies as st


def edit_lists(alphabet: str):
    """Up to four (op, position, text) edits; text supplies the inserted
    bytes for "put" and the length of a dropped or duplicated run."""
    return st.lists(st.tuples(st.sampled_from(["drop", "dup", "put", "cut"]),
                              st.integers(0, 10**6),
                              st.text(alphabet=alphabet, max_size=6)),
                    min_size=1, max_size=4)


def mutate(valid: str | bytes, edits, bad_byte: bool) -> bytes:
    """Apply edits to a file's bytes (text as UTF-8); bad_byte appends a
    byte UTF-8 never uses."""
    data = bytearray(valid.encode("utf-8") if isinstance(valid, str)
                     else valid)
    for op, pos, payload in edits:
        pos %= len(data) + 1
        if op == "drop":
            del data[pos:pos + 1 + len(payload)]
        elif op == "dup":
            data[pos:pos] = data[pos:pos + len(payload) + 3]
        elif op == "put":
            data[pos:pos] = payload.encode("utf-8")
        else:
            del data[pos:]
    if bad_byte:
        data.append(0xFF)
    return bytes(data)
