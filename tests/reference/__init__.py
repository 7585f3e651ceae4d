"""Test-only oracles: the string transcriptions the production code is held to.

The library ships one implementation per job.  The formulations it
replaced -- closer to the paper's pseudocode, slower, and easier to
check by eye -- live here, and the equivalence suites require the
production code to publish bit-for-bit what they publish:

* :mod:`tests.reference.horizontal` -- HORPART over string records;
* :mod:`tests.reference.vertical` and :mod:`tests.reference.anonymity`
  -- VERPART with the record-scanning chunk checker;
* :mod:`tests.reference.refine` -- REFINE re-attempting every pair and
  re-projecting every record;
* :mod:`tests.reference.engine` -- the three assembled into
  :class:`~tests.reference.engine.ReferenceDisassociator`, plus the
  in-memory cold sharded run;
* :mod:`tests.reference.apriori` -- the level-wise Apriori miner, the
  oracle of :mod:`repro.mining.itemsets`.
"""
