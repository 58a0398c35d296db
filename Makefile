# Convenience targets for the clumsy-packet-processor reproduction.

PYTHON ?= python

.PHONY: install test lint typecheck check check-deep bench artifacts examples trace-demo all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# reprolint: per-file AST invariant linter over src/repro (see
# docs/LINTING.md).
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint

# mypy: strict for repro.analysis, repro.telemetry, repro.oracle, and
# repro.traffic; permissive elsewhere (configured in pyproject.toml).
typecheck:
	PYTHONPATH=src $(PYTHON) -m mypy

# Verification oracle (see docs/VERIFICATION.md): differential twins,
# metamorphic invariants, and a seeded config fuzz over all seven apps.
# Shrunk failing configs are filed in .repro-fuzz-corpus.
check:
	PYTHONPATH=src $(PYTHON) -m repro check --quick

check-deep:
	PYTHONPATH=src $(PYTHON) -m repro check --deep

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every paper artifact via the CLI (quick versions).
# Results persist in .repro-cache, so a re-run after an interrupt or a
# code change that doesn't bump store.CODE_VERSION simulates only what
# is missing (DESIGN.md section 9).
artifacts:
	$(PYTHON) -m repro all --cache-dir .repro-cache

# One traced run with event-log export (see README "Telemetry & tracing").
trace-demo:
	$(PYTHON) -m repro trace crc --out traces
	$(PYTHON) -m repro trace route --packets 200 --out traces

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/overclocking_study.py route 150
	$(PYTHON) examples/dynamic_adaptation.py
	$(PYTHON) examples/custom_application.py
	$(PYTHON) examples/operating_point.py route
	$(PYTHON) examples/multicore_np.py

all: lint test check bench

clean:
	rm -rf build *.egg-info .pytest_cache .hypothesis .repro-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
