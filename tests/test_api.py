"""The public surface: every exported name resolves, and nothing else is left."""

import inspect

import morsetoeplitz
from morsetoeplitz import conjugacy, errors, sliding
from morsetoeplitz.graphs import SubstitutionGraph
from morsetoeplitz.patterns import WordReport
from morsetoeplitz.substitution import Substitution
from morsetoeplitz.words import Window, Word

#: Helpers that no caller used, by the module that held them.
REMOVED = {
    errors: ("DegenerateError",),
    sliding: ("identity_rule", "projection_rule", "image_language"),
    conjugacy: ("morse_identity_pairs", "MORSE_ALLOWED_PAIRS", "_MAX_SPAN"),
}

#: Accessors that only restated a field or a builtin, by the class that held
#: them: ``win.word.letters[win.origin + i]``, ``Window(win.word, win.origin +
#: j)``, a slice of ``win.word``, ``w.letters.count(a)``, ``sub.images[a]``,
#: ``g.arcs[a][b]``, ``r.overlap is None`` and ``r.even_square is None``.
REMOVED_ATTRIBUTES = {
    Window: ("at", "shift", "restrict"),
    Word: ("count",),
    Substitution: ("image", "identify_equal_images"),
    SubstitutionGraph: ("has_arc",),
    WordReport: ("overlap_free", "toeplitz_admissible"),
}


def test_every_export_resolves_once():
    names = morsetoeplitz.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(morsetoeplitz, name) is not None, name


def test_removed_helpers_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in morsetoeplitz.__all__
            assert not hasattr(morsetoeplitz, name), name
            assert not hasattr(module, name), (module.__name__, name)
    for cls, names in REMOVED_ATTRIBUTES.items():
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)


def test_size_caps_are_no_parameters():
    for func in (
        morsetoeplitz.find_overlap,
        morsetoeplitz.find_even_square,
        morsetoeplitz.language_brute,
    ):
        assert "max_len" not in inspect.signature(func).parameters, func.__name__
