#!/usr/bin/env python3
"""Validate a bench_load artifact (LOAD_<rev>.json) against bench/bench_schema.json.

Standard library only (CI and the dev container both lack jsonschema), so
this implements the subset of JSON Schema the checked-in schema uses:
type (string or list, with "integer" meaning an integral number), required,
properties, items, enum, const (pins schema_version, so a v8 artifact fails
against the v9 schema instead of sliding through), minimum, minItems, and
additionalProperties: false (the service_stats rollup and each case are
closed objects, so a counter added to ServiceStats but not to the schema
fails here as well as in the stats-exhaustiveness lint, and a case field no
schema names is refused).
Unknown schema keywords are rejected loudly rather than silently ignored, so
the schema cannot drift ahead of the validator.

usage: validate_bench_json.py SCHEMA ARTIFACT [ARTIFACT...]
"""

import json
import sys

HANDLED = {
    "$schema", "title", "description",
    "type", "required", "properties", "items", "enum", "const", "minimum", "minItems",
    "additionalProperties",
}


def type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        # Draft-07 semantics: any number with a zero fractional part (2.0
        # counts), so round-tripped artifacts stay valid.
        if isinstance(value, bool):
            return False
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "null":
        return value is None
    raise ValueError(f"unsupported type keyword: {expected}")


def validate(value, schema, path, errors):
    unknown = set(schema) - HANDLED
    if unknown:
        raise ValueError(f"{path}: schema uses unsupported keywords {sorted(unknown)}; "
                         "extend validate_bench_json.py alongside the schema")

    if "type" in schema:
        expected = schema["type"]
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(type_ok(value, t) for t in allowed):
            errors.append(f"{path}: expected type {expected}, got {type(value).__name__}")
            return

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum {schema['enum']}")

    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: {value!r} != const {schema['const']!r}")

    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} below minimum {schema['minimum']}")

    if isinstance(value, dict):
        for name in schema.get("required", []):
            if name not in value:
                errors.append(f"{path}: missing required key '{name}'")
        for name, sub in schema.get("properties", {}).items():
            if name in value:
                validate(value[name], sub, f"{path}.{name}", errors)
        if schema.get("additionalProperties") is False:
            extra = sorted(set(value) - set(schema.get("properties", {})))
            if extra:
                errors.append(f"{path}: unexpected keys {extra} "
                              "(additionalProperties: false)")

    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{path}: {len(value)} items, minimum {schema['minItems']}")
        if "items" in schema:
            for i, element in enumerate(value):
                validate(element, schema["items"], f"{path}[{i}]", errors)


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1], encoding="utf-8") as f:
            schema = json.load(f)
    except OSError as err:
        print(f"{argv[1]}: cannot read schema: {err}", file=sys.stderr)
        return 2

    status = 0
    for artifact_path in argv[2:]:
        try:
            with open(artifact_path, encoding="utf-8") as f:
                artifact = json.load(f)
        except OSError as err:
            # Catches the unexpanded glob case too: no LOAD_*.json files
            # leaves the literal pattern in argv.
            print(f"{artifact_path}: cannot read: {err}", file=sys.stderr)
            status = 1
            continue
        except json.JSONDecodeError as err:
            print(f"{artifact_path}: not valid JSON: {err}", file=sys.stderr)
            status = 1
            continue
        errors = []
        validate(artifact, schema, "$", errors)
        if errors:
            print(f"{artifact_path}: FAIL", file=sys.stderr)
            for message in errors:
                print(f"  {message}", file=sys.stderr)
            status = 1
        else:
            cases = len(artifact.get("cases", []))
            print(f"{artifact_path}: OK ({cases} cases, rev {artifact.get('rev')})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
