"""JSON schemas for the emitted certificates (draft 2020-12), and the
stage recorder behind the staged reports."""


class PipelineError(Exception):
    pass


class Stages(list):
    """A report's stage list: ``check`` appends one entry per stage."""

    def __init__(self, progress=None):
        super().__init__()
        self.progress = progress

    def check(self, label, ok, fatal=True, **info):
        """Record {"stage", "ok", **info}; a failed fatal stage raises."""
        self.append({"stage": label, "ok": bool(ok), **info})
        if self.progress is not None:
            self.progress("stage %-38s %s" % (label, "ok" if ok else "FAILED"))
        if fatal and not ok:
            raise PipelineError("stage failed: %s (%s)" % (label, info))


SINGULARITY_CERTIFICATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "SingularityCertificate",
    "type": "object",
    "required": [
        "surface",
        "n_points",
        "tau_total",
        "verdict",
        "strata",
        "orbits",
        "pieces",
    ],
    "properties": {
        "surface": {"type": "string"},
        "n_points": {"type": "integer", "minimum": 0},
        "tau_total": {"type": "integer", "minimum": 0},
        "n_A1": {"type": ["integer", "null"]},
        "n_A2": {"type": ["integer", "null"]},
        "verdict": {
            "enum": ["all_A1", "all_A2", "smooth", "mixed_or_worse"]
        },
        "strata": {
            "type": "object",
            "required": ["rank_le1", "degenerate"],
            "properties": {
                "rank_le1": {"enum": ["empty", "nonempty"]},
                "degenerate": {"enum": ["empty", "all", "mixed"]},
            },
        },
        "orbits": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "required": ["size"],
                "properties": {
                    "size": {"type": "integer", "minimum": 1},
                    "representative": {"type": "string"},
                },
            },
        },
        "pieces": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["chart", "tau", "npoints"],
                "properties": {
                    "chart": {"type": "string"},
                    "chart_degree": {"type": "integer"},
                    "chart_points": {"type": "integer"},
                    "tau": {"type": "integer"},
                    "npoints": {"type": "integer"},
                },
            },
        },
    },
}

DIVISIBILITY_CERTIFICATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "DivisibilityCertificate",
    "type": "object",
    "required": [
        "matrix",
        "det",
        "nullspace",
        "swaps",
        "relation",
        "assumptions",
        "stages",
    ],
    "properties": {
        "surface": {"type": "string"},
        "matrix": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "det": {"type": "integer"},
        "nullspace": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "vector": {"type": "array", "items": {"type": "integer"}},
        "swaps": {"type": "array", "items": {"type": "integer"}},
        "relation": {"type": "string"},
        "assumptions": {"type": "object"},
        "published_match": {"type": ["object", "null"]},
        "labels": {"type": "array", "items": {"type": "string"}},
        "stages": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["stage", "ok"],
                "properties": {
                    "stage": {"type": "string"},
                    "ok": {"type": "boolean"},
                },
            },
        },
        "pass": {"type": "boolean"},
    },
}
