"""The CLI's config checker against jsonschema, its oracle."""

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from slab.cli import KINDS, _typed, schema_error

# the keywords schema_error implements; "default" is an annotation
CHECKED = {"type", "enum", "minimum", "exclusiveMinimum", "minItems",
           "maxItems", "items", "required", "additionalProperties",
           "properties", "default"}
TYPES = ("object", "array", "string", "boolean", "number", "integer")


def subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if isinstance(schema.get("items"), dict):
        yield from subschemas(schema["items"])


def unchecked(schema):
    """The parts of ``schema`` that schema_error does not reproduce."""
    found = []
    for sub in subschemas(schema):
        found += sorted(set(sub) - CHECKED)
        if sub.get("type", "object") not in TYPES:
            found.append(f"type {sub['type']!r}")
        if not all(e is None or isinstance(e, str)
                   for e in sub.get("enum", ())):
            found.append(f"enum {sub['enum']!r}")
        # jsonschema words these two differently
        if sub.get("minItems") == 1 or sub.get("maxItems") == 0:
            found.append("minItems 1 or maxItems 0")
        if sub.get("additionalProperties", False) is not False:
            found.append("additionalProperties")
        if not isinstance(sub.get("items", {}), dict):
            found.append("items")
    return found


def test_unchecked_finds_each_unhandled_part():
    schema = {"type": "object", "additionalProperties": {"type": "number"},
              "properties": {
                  "a": {"type": ["number", "null"], "maximum": 1},
                  "b": {"type": "array", "minItems": 1, "items": [{}]},
                  "c": {"enum": [1]}}}
    assert unchecked(schema) == [
        "additionalProperties", "maximum", "type ['number', 'null']",
        "minItems 1 or maxItems 0", "items", "enum [1]"]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_registry_schemas_use_only_checked_keywords(kind):
    assert unchecked(KINDS[kind].schema) == []


INTEGERS = st.one_of(st.integers(-1, 20), st.sampled_from([0.0, 4.0, 16.0]))
NUMBERS = st.one_of(INTEGERS, st.floats(-1.0, 20.0))
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.floats(),
                 st.text(max_size=2), st.lists(st.integers(-1, 3),
                                               max_size=3),
                 st.dictionaries(st.sampled_from("ab"), st.integers(0, 1),
                                 max_size=1))
# every registry key, each an extra key for the kinds that lack it
NAMES = sorted({key for kind in KINDS.values()
                for key in kind.schema["properties"]} | {"bogus", "A"})


def values(schema, junk):
    """Values of the shape and size ``schema`` asks for, numbers now and
    then out of range; with ``junk``, also lists of any length and values
    of any type."""
    if "enum" in schema:
        good = st.sampled_from(schema["enum"])
    elif schema["type"] == "array":
        items = values(schema["items"], junk)
        good = st.lists(items, min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 5))
        if junk:
            good = st.one_of(good, st.lists(items, max_size=5))
    else:
        good = {"number": NUMBERS, "integer": INTEGERS,
                "string": st.sampled_from(["euclidean", "structured", ""]),
                "boolean": st.booleans()}[schema["type"]]
    return st.one_of(good, good, JUNK) if junk else good


def sometimes(names):
    """One time in four, one or two of ``names``; otherwise none."""
    return st.integers(0, 3).flatmap(
        lambda k: st.just([]) if k < 3 else st.lists(
            st.sampled_from(names), min_size=1, max_size=2, unique=True))


def configs(schema):
    """Configs with a few optional keys, half of them free of junk; one in
    four misses required keys, one in four has extra keys."""
    required = schema["required"]
    optional = sorted(set(schema["properties"]) - set(required))
    fields = {junk: {key: values(sub, junk)
                     for key, sub in schema["properties"].items()}
              for junk in (False, True)}
    missing, extra = sometimes(required), sometimes(NAMES)

    @st.composite
    def draw_config(draw):
        gone = draw(missing)
        keys = [key for key in required if key not in gone]
        keys += draw(st.lists(st.sampled_from(optional), max_size=4,
                              unique=True))
        field = fields[draw(st.booleans())]
        cfg = {key: draw(field[key]) for key in keys}
        for key in draw(extra):
            cfg.setdefault(key, draw(JUNK))
        return cfg
    return draw_config()


CONFIGS = {kind: configs(KINDS[kind].schema) for kind in KINDS}
VALIDATORS = {kind: Draft202012Validator(KINDS[kind].schema)
              for kind in KINDS}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_checker_message_matches_best_match(kind, data):
    schema = KINDS[kind].schema
    cfg = data.draw(CONFIGS[kind])
    best = best_match(VALIDATORS[kind].iter_errors(cfg))
    message = schema_error(schema, cfg)
    assert message == (None if best is None else best.message)
    if message is None:
        typed = _typed(schema, cfg)
        assert typed == cfg
        for key, value in typed.items():
            if schema["properties"][key].get("type") == "integer":
                assert type(value) is int
