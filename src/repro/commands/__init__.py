"""The CLI's commands, one module each (:data:`repro.cli.COMMANDS`)."""
