"""Machine-model substrate: multi-module chips with shared-resource pipelines."""
