"""Tests of the benchmark's own code import the program from ``src/``."""

from checkout import use_program

use_program()
