"""Configuration parsing: PaPar's two user-facing configuration files.

* :mod:`repro.config.schema` — input-data descriptions (Figures 4/5);
* :mod:`repro.config.workflow` — workflow descriptions (Figures 8/10) with
  ``$variable`` resolution;
* :mod:`repro.config.operators` — custom operator registration (Figure 7).
"""

from repro._lazy import lazy_exports

# names load on first use: every command parses schemas and workflows, and
# only a custom operator registration (Figure 7) needs the third parser
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.config.schema": (
        "BLAST_INPUT_XML", "EDGE_INPUT_XML", "load_input_config", "parse_input_config",
    ),
    "repro.config.workflow": (
        "AddOnSpec", "Bindings", "OperatorSpec", "ParamSpec", "WorkflowSpec",
        "bind_arguments", "load_workflow_config", "parse_workflow_config",
    ),
    "repro.config.operators": (
        "OperatorRegistration", "load_operator_config", "parse_operator_config",
    ),
})
