"""The exact ``--help`` text of ``randmeas`` and of each subcommand.

The text is the CLI's documented surface: an option added, dropped,
renamed or reordered shows up here.  Rendered at 80 columns.
"""

import pytest

from randmeas.cli import main

HELP = {
    "randmeas": """\
usage: randmeas [-h] [--version] {sample,moments,criteria,design} ...

Simulate random local measurements on few-qubit states: correlation
distributions, moments, and entanglement criteria.

positional arguments:
  {sample,moments,criteria,design}
    sample              sample a correlation distribution
    moments             estimate moments of a correlation distribution
    criteria            evaluate entanglement criteria
    design              emit a direction set and its validation

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "sample": """\
usage: randmeas sample [-h] --state STATE [--seed SEED] [--output OUTPUT]
                       [--subset SUBSET] [--samples SAMPLES]

options:
  -h, --help         show this help message and exit
  --state STATE      state spec 'kind[:param[,param]]'; kinds: product_zero:n,
                     bell, ghz:n, w:n, cluster_linear[:n], werner:p, trisep4,
                     bisep4[:phi]; aliases: product2, bell_psi_minus
  --seed SEED        RNG seed (default $RANDMEAS_SEED or 0)
  --output OUTPUT    output directory
  --subset SUBSET    parties, e.g. 'full' or '1,2'
  --samples SAMPLES  number of random settings M
""",
    "moments": """\
usage: randmeas moments [-h] --state STATE [--seed SEED] [--output OUTPUT]
                        [--format {json,csv}] [--subset SUBSET]
                        [--orders ORDERS] [--samples SAMPLES] [--shots SHOTS]
                        [--design DESIGN] [--bootstrap]

options:
  -h, --help           show this help message and exit
  --state STATE        state spec 'kind[:param[,param]]'; kinds:
                       product_zero:n, bell, ghz:n, w:n, cluster_linear[:n],
                       werner:p, trisep4, bisep4[:phi]; aliases: product2,
                       bell_psi_minus
  --seed SEED          RNG seed (default $RANDMEAS_SEED or 0)
  --output OUTPUT      output directory
  --format {json,csv}
  --subset SUBSET      'full', 'all', or a comma list
  --orders ORDERS      comma list of moment orders t
  --samples SAMPLES    Monte-Carlo settings M
  --shots SHOTS        shots per setting K (0 = exact expectations)
  --design DESIGN      design order for exact sums (0 = Haar MC)
  --bootstrap          bootstrap standard errors (1000 resamples)
""",
    "criteria": """\
usage: randmeas criteria [-h] --state STATE [--seed SEED] [--output OUTPUT]
                         [--test TEST] [--structure]

options:
  -h, --help       show this help message and exit
  --state STATE    state spec 'kind[:param[,param]]'; kinds: product_zero:n,
                   bell, ghz:n, w:n, cluster_linear[:n], werner:p, trisep4,
                   bisep4[:phi]; aliases: product2, bell_psi_minus
  --seed SEED      RNG seed (default $RANDMEAS_SEED or 0)
  --output OUTPUT  output directory
  --test TEST      criterion: gme4, wclass, bisep3, length
  --structure      also report all marginal bound tests
""",
    "design": """\
usage: randmeas design [-h] [--seed SEED] [--output OUTPUT] --order ORDER

options:
  -h, --help       show this help message and exit
  --seed SEED      RNG seed (default $RANDMEAS_SEED or 0)
  --output OUTPUT  output directory
  --order ORDER    design degree (3 or 5)
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "randmeas" else [command, "--help"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP[command]
