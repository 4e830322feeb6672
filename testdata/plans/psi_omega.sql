-- The Ψ/Ω plan-and-count corpus. TestPlanCorpus (mural/plans_test.go)
-- loads 6,000 seed-1 names and a 2,000-synset English/French/Tamil net,
-- runs EXPLAIN and EXPLAIN ANALYZE of each statement below at workers = 1
-- and 2, and diffs the output against psi_omega.w1.golden and
-- psi_omega.w2.golden. One statement a line; "--" starts a comment.
--
-- Tables: names (id INT, name UNITEXT), 6,000 names in English, Hindi,
-- Tamil and Kannada; texts (id INT, name TEXT), 600 English names as bare
-- TEXT, every fifth upper-cased, two NULL; probe (id INT, name UNITEXT),
-- eight rows, one NULL; doc (id INT, title TEXT, category UNITEXT), 2,000
-- word forms of the net, some upper-cased, some non-ASCII, some NULL;
-- concept (id INT, word UNITEXT), six Ω operands, one NULL. The statements
-- at the end read tables of their own: names_mtree, names_mdi, names_qgram
-- and names_btree, 1,000 English and Tamil names each under the index its
-- name says (names_btree's on id); pairs (id INT, name UNITEXT, alias
-- UNITEXT), 300 names and another name each, six aliases NULL; terms (id
-- INT, word UNITEXT, concept UNITEXT, title TEXT), 300 word forms of the net,
-- each with an English concept, for two rows in three a hypernym of the word
-- (six NULL), and its parent's English lemma as title, then two words spelt
-- with the Kelvin sign.

-- Ψ scans over stored phonemes at k = 1..3.
SELECT id FROM names WHERE name LEXEQUAL 'vaameedir' THRESHOLD 1
SELECT id FROM names WHERE name LEXEQUAL 'vaameedir' THRESHOLD 2
SELECT id FROM names WHERE name LEXEQUAL 'vaameedir' THRESHOLD 3
SELECT id, name FROM names WHERE name LEXEQUAL unitext('वामीदिर', hindi) THRESHOLD 2
SELECT count(*) FROM names WHERE name LEXEQUAL 'pavraanish' THRESHOLD 3
-- Ψ with IN lists: the constant admitted or not, rows of other languages.
SELECT id FROM names WHERE name LEXEQUAL unitext('வாமீதிர்', tamil) THRESHOLD 1 IN tamil, kannada
SELECT id FROM names WHERE name LEXEQUAL 'shaagam' THRESHOLD 2 IN english, hindi
SELECT id FROM names WHERE name LEXEQUAL unitext('shaagam', english) THRESHOLD 2 IN hindi
-- Ψ with the constant on the left, upper-case, NULL and non-ASCII operands.
SELECT id FROM names WHERE unitext('pijan', english) LEXEQUAL name THRESHOLD 2
SELECT id FROM names WHERE name LEXEQUAL 'PIJAN' THRESHOLD 1
SELECT id FROM names WHERE name LEXEQUAL NULL THRESHOLD 2
SELECT id FROM names WHERE name LEXEQUAL unitext('ಶಾಗಮ್', kannada) THRESHOLD 1
-- Ψ under a conjunct, a disjunction and a LIMIT.
SELECT id FROM names WHERE id < 3000 AND name LEXEQUAL 'vaameedir' THRESHOLD 2
SELECT id FROM names WHERE name LEXEQUAL 'vaameedir' THRESHOLD 1 OR name LEXEQUAL 'pijan' THRESHOLD 1
SELECT id, name FROM names WHERE name LEXEQUAL 'shaagam' THRESHOLD 2 LIMIT 3
-- Ψ over bare TEXT: read in the IN list's first language, converted per row.
SELECT id FROM texts WHERE name LEXEQUAL 'vaameedir' THRESHOLD 2
SELECT id FROM texts WHERE name LEXEQUAL unitext('वामीदिर', hindi) THRESHOLD 1 IN hindi, english
SELECT id FROM texts WHERE name LEXEQUAL 'PAVRAANISH' THRESHOLD 1 LIMIT 1
-- Ψ joins, hoisted: k = 1..3, IN lists, an outer filter, LIMIT, TEXT on either side.
SELECT p.id, n.id FROM probe p, names n WHERE p.name LEXEQUAL n.name THRESHOLD 1
SELECT p.id, n.id FROM probe p, names n WHERE p.name LEXEQUAL n.name THRESHOLD 2 IN english, tamil
SELECT p.id, n.id FROM probe p, names n WHERE p.id < 2 AND p.name LEXEQUAL n.name THRESHOLD 3
SELECT p.id, n.id FROM probe p, names n WHERE n.name LEXEQUAL p.name THRESHOLD 2
SELECT p.id, n.id FROM probe p, names n WHERE p.name LEXEQUAL n.name THRESHOLD 2 LIMIT 1
SELECT p.id, n.id FROM probe p, names n WHERE p.name LEXEQUAL n.name THRESHOLD 3 LIMIT 10
SELECT p.id, t.id FROM probe p, texts t WHERE p.name LEXEQUAL t.name THRESHOLD 1
SELECT t.id, n.id FROM texts t, names n WHERE t.id < 3 AND t.name LEXEQUAL n.name THRESHOLD 1
-- Ω scans: the constant on either side, upper-case, IN lists, NULL.
SELECT id FROM doc WHERE category SEMEQUAL 'history'
SELECT id FROM doc WHERE category SEMEQUAL 'History' IN english, french, tamil
SELECT id FROM doc WHERE category SEMEQUAL 'music' IN french
SELECT id, category FROM doc WHERE category SEMEQUAL unitext('french:science', french) IN tamil, french
SELECT count(*) FROM doc WHERE category SEMEQUAL 'entity' IN english, french, tamil
SELECT id FROM doc WHERE 'discipline' SEMEQUAL category
SELECT id FROM doc WHERE unitext('FRENCH:HISTORIOGRAPHY', french) SEMEQUAL category IN french
SELECT id FROM doc WHERE category SEMEQUAL NULL
-- Ω under a conjunct, a disjunction and a LIMIT.
SELECT id FROM doc WHERE id < 1000 AND category SEMEQUAL 'art'
SELECT id FROM doc WHERE category SEMEQUAL 'art' AND id >= 1000
SELECT id FROM doc WHERE category SEMEQUAL 'history' OR category SEMEQUAL 'music'
SELECT id FROM doc WHERE category SEMEQUAL 'history' LIMIT 2
-- Ω over bare TEXT, read as English.
SELECT id FROM doc WHERE title SEMEQUAL 'History'
SELECT id FROM doc WHERE 'science' SEMEQUAL title
-- Ω joins.
SELECT c.id, d.id FROM concept c, doc d WHERE d.category SEMEQUAL c.word
SELECT c.id, d.id FROM concept c, doc d WHERE c.word SEMEQUAL d.category IN english
SELECT c.id, d.id FROM concept c, doc d WHERE d.category SEMEQUAL c.word IN french, tamil LIMIT 5
SELECT c.id, d.id FROM concept c, doc d WHERE d.title SEMEQUAL c.word
-- Index scans of 1,000-name tables, each rechecking its Ψ: the candidates
-- of a metric index at k = 0 share the probe's phoneme.
SELECT id FROM names_mtree WHERE name LEXEQUAL 'vaameedir' THRESHOLD 0
SELECT id FROM names_mtree WHERE name LEXEQUAL 'shaagam' THRESHOLD 0
SELECT id FROM names_mdi WHERE name LEXEQUAL 'SHAAGAM' THRESHOLD 0
SELECT id FROM names_qgram WHERE name LEXEQUAL 'drobham' THRESHOLD 0
SELECT id FROM names_btree WHERE id = 10 AND name LEXEQUAL 'shaagam' THRESHOLD 3
-- Ψ index joins: the M-Tree probed per outer row, the candidates rechecked,
-- under an IN list that drops some.
SELECT p.id, n.id FROM pairs p, names_mtree n WHERE p.id = 4 AND p.name LEXEQUAL n.name THRESHOLD 0
SELECT p.id, n.id FROM pairs p, names_mtree n WHERE p.id = 6 AND n.name LEXEQUAL p.name THRESHOLD 0 IN tamil
-- Hash joins with a residual Ψ and a residual Ω over two columns.
SELECT a.id, b.id FROM pairs a, pairs b WHERE a.id = b.id AND a.name LEXEQUAL b.alias THRESHOLD 3
SELECT a.id, b.id FROM terms a, terms b WHERE a.id = b.id AND a.word SEMEQUAL b.concept
-- Column ⊗ column Ψ and Ω within one table, TEXT among them.
SELECT id FROM pairs WHERE name LEXEQUAL alias THRESHOLD 3
SELECT id FROM pairs WHERE alias LEXEQUAL name THRESHOLD 2 IN english, tamil
SELECT id FROM terms WHERE word SEMEQUAL concept
SELECT id FROM terms WHERE word SEMEQUAL concept IN french, tamil
SELECT id FROM terms WHERE title SEMEQUAL concept
-- Ω over text that is not ASCII but folds to a word form: a filtered probe
-- (the constant on the left) must not reject it on its hash.
SELECT id FROM terms WHERE 'history' SEMEQUAL word
SELECT id FROM terms WHERE 'history' SEMEQUAL title IN english
-- ORDER BY, DISTINCT and a generic nested-loops join.
SELECT id, name FROM names_mdi WHERE name LEXEQUAL 'shaagam' THRESHOLD 2 ORDER BY id DESC
SELECT DISTINCT concept FROM terms WHERE word SEMEQUAL 'entity'
SELECT a.id, b.id FROM pairs a, terms b WHERE a.id < 3 AND b.id < a.id
