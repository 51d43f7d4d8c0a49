"""Window-by-window oracles for the sliding-code kernel.

``apply`` is the ``b"".join`` loop that ``sliding.apply_to_word`` replaced
with window codes and one translation: one slice and one table lookup per
window, raising at the first undefined window.  ``apply_code`` builds on
it the way the library does.  They share no code with the kernel they
check.
"""

from __future__ import annotations

from morsetoeplitz import DomainError, RangeError


def apply(rule, data: bytes) -> bytes:
    width = rule.width
    out = []
    for i in range(len(data) - width + 1):
        window = data[i : i + width]
        value = rule.table.get(window)
        if value is None:
            text = "".join(rule.input_alphabet.symbols[a] for a in window)
            raise DomainError(f"rule is undefined on window {text!r}")
        out.append(value)
    return b"".join(out)


def apply_code(rule, data: bytes, origin: int) -> tuple[bytes, int]:
    """Letters and origin of the coded window."""
    out = apply(rule, data)
    origin -= rule.memory
    if not 0 <= origin <= len(out):
        raise RangeError("origin leaves the window after coding")
    return out, origin
