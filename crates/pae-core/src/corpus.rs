//! Corpus construction: product pages → tagged sentences + table pairs.

use pae_html::{extract_tables, extract_text, parse, Node, TextOptions};
use pae_synth::Dataset;
use pae_text::{HmmPosTagger, LexiconPosTagger, PosTagger, Sentence, SentenceSplitter, Tokenizer};

/// Which PoS tagger backs the corpus analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PosBackend {
    /// Dictionary + character-class rules (deterministic, default).
    Lexicon,
    /// Bigram HMM trained on lexicon-projected silver data.
    Hmm,
}

/// One product's analyzed text.
#[derive(Debug, Clone)]
pub struct ProductText {
    /// Product id.
    pub id: u32,
    /// Sentences (title first), tokenized and PoS-tagged.
    pub sentences: Vec<Sentence>,
}

/// One `(attribute name, value)` pair read from a dictionary table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TablePair {
    /// Product the table belongs to.
    pub product: u32,
    /// Attribute surface name, normalized.
    pub attr: String,
    /// Value, normalized.
    pub value: String,
}

/// Parsed corpus: analyzed free text plus the raw dictionary-table
/// pairs (the seed source).
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Per-product analyzed sentences.
    pub products: Vec<ProductText>,
    /// Raw `(attr, value)` pairs from dictionary tables.
    pub table_pairs: Vec<TablePair>,
}

impl Corpus {
    /// Total sentence count.
    pub fn n_sentences(&self) -> usize {
        self.products.iter().map(|p| p.sentences.len()).sum()
    }

    /// All sentences as plain word lists (word2vec input).
    pub fn word_sentences(&self) -> Vec<Vec<String>> {
        self.products
            .iter()
            .flat_map(|p| {
                p.sentences
                    .iter()
                    .map(|s| s.words().map(str::to_owned).collect())
            })
            .collect()
    }
}

/// Parses every page of `dataset` with the lexicon PoS backend.
pub fn parse_corpus(dataset: &Dataset) -> Corpus {
    parse_corpus_with(dataset, PosBackend::Lexicon)
}

/// Parses every page of `dataset` with the chosen PoS backend.
pub fn parse_corpus_with(dataset: &Dataset, backend: PosBackend) -> Corpus {
    let tokenizer = dataset.tokenizer();
    let lexicon_tagger = LexiconPosTagger::new(dataset.lexicon.clone());
    let splitter = SentenceSplitter::new();

    let tagger: Box<dyn PosTagger> = match backend {
        PosBackend::Lexicon => Box::new(lexicon_tagger.clone()),
        PosBackend::Hmm => {
            // Silver training data: lexicon-tag a sample of the corpus,
            // then train the HMM on it (self-supervision — no human
            // annotation, in the spirit of the paper).
            let mut silver = Vec::new();
            for page in dataset.pages.iter().take(200) {
                let forest = parse(&page.html);
                let text = extract_text(&forest, &TextOptions::default());
                for raw in splitter.split(&text) {
                    let toks = tokenizer.tokenize(&raw);
                    let tags = lexicon_tagger.tag(&toks);
                    silver.push(
                        toks.iter()
                            .zip(&tags)
                            .map(|(t, &g)| (t.text.clone(), g))
                            .collect(),
                    );
                }
            }
            Box::new(HmmPosTagger::train(&silver))
        }
    };

    let mut products = Vec::with_capacity(dataset.pages.len());
    let mut table_pairs = Vec::new();
    for page in &dataset.pages {
        let forest = parse(&page.html);
        products.push(ProductText {
            id: page.id,
            sentences: analyze_page(&forest, &splitter, tokenizer.as_ref(), tagger.as_ref()),
        });

        // Dictionary tables.
        for table in extract_tables(&forest) {
            if let Some(dict) = table.as_dictionary() {
                for (name, value) in dict.pairs {
                    table_pairs.push(TablePair {
                        product: page.id,
                        attr: normalize(tokenizer.as_ref(), &name),
                        value: normalize(tokenizer.as_ref(), &value),
                    });
                }
            }
        }
    }

    Corpus {
        products,
        table_pairs,
    }
}

/// One page's free text as analyzed sentences: the `<title>` content
/// first, then the split body text; dictionary tables (the seed) are
/// left out. Corpus parsing and the served extractor both read pages
/// through this function.
pub fn analyze_page(
    forest: &[Node],
    splitter: &SentenceSplitter,
    tokenizer: &dyn Tokenizer,
    tagger: &dyn PosTagger,
) -> Vec<Sentence> {
    let mut sentences = Vec::new();
    for title in pae_html::dom::find_all(forest, "title") {
        let t = title.text_content();
        if !t.is_empty() {
            sentences.push(Sentence::analyze(&t, tokenizer, tagger));
        }
    }
    let text = extract_text(forest, &TextOptions::default());
    for raw in splitter.split(&text) {
        let s = Sentence::analyze(&raw, tokenizer, tagger);
        if !s.is_empty() {
            sentences.push(s);
        }
    }
    sentences
}

/// Tokenize-and-rejoin normalization (same convention as the truth).
pub fn normalize(tokenizer: &dyn Tokenizer, raw: &str) -> String {
    pae_synth::dataset::normalize_with(tokenizer, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pae_synth::{CategoryKind, DatasetSpec};

    fn corpus() -> (Dataset, Corpus) {
        let d = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(40)
            .generate();
        let c = parse_corpus(&d);
        (d, c)
    }

    #[test]
    fn every_product_has_sentences() {
        let (d, c) = corpus();
        assert_eq!(c.products.len(), d.pages.len());
        for p in &c.products {
            assert!(!p.sentences.is_empty(), "product {} empty", p.id);
        }
        assert!(c.n_sentences() > d.pages.len());
    }

    #[test]
    fn table_pairs_extracted_and_normalized() {
        let (d, c) = corpus();
        assert!(!c.table_pairs.is_empty());
        for pair in &c.table_pairs {
            assert_eq!(pair.value, d.normalize(&pair.value), "{pair:?}");
        }
    }

    #[test]
    fn hmm_backend_parses_too() {
        let d = DatasetSpec::new(CategoryKind::MailboxDe, 7)
            .products(20)
            .generate();
        let c = parse_corpus_with(&d, PosBackend::Hmm);
        assert_eq!(c.products.len(), 20);
        assert!(c.n_sentences() > 20);
    }

    #[test]
    fn word_sentences_match_token_stream() {
        let (_, c) = corpus();
        let ws = c.word_sentences();
        assert_eq!(ws.len(), c.n_sentences());
        assert!(ws.iter().all(|s| !s.is_empty()));
    }
}
