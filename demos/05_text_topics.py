"""Tiny end-to-end text pipeline: corpus -> TF-IDF -> topics -> keywords.

Builds a three-theme toy corpus in memory, runs the preprocessing chain,
fits a supervised factorization, and prints the top keywords per topic with
cluster scores against the true themes. Run directly:

    python3 demos/05_text_topics.py
"""

from ssnmf import evalcluster, textprep
from ssnmf.classify import predict, train, transform, accuracy
from ssnmf.objectives import ModelVariant
from ssnmf.solver import SsnmfConfig
from ssnmf.textprep import Corpus, Document, one_hot

# every document repeats a few of its theme's core words so the vocabulary
# built on the training split still covers the held-out documents
DOCS = {
    "hockey": [
        "the puck slid across the ice and the goalie dove for the save",
        "a slapshot on goal beat the goalie but the puck hit the post",
        "the ice rink was packed and the goalie froze the puck",
        "he flipped the puck over the goalie into the goal",
        "overtime on home ice and a glove save kept the goal out",
        "fresh ice at the rink and a quick goal past the goalie",
    ],
    "space": [
        "the rocket cleared the tower and pushed the orbit higher",
        "the satellite reached orbit after the rocket burn",
        "telemetry showed the rocket engines at full thrust for orbit",
        "the lander left orbit while the satellite relayed telemetry",
        "a spacewalk fixed the satellite antenna in low orbit",
        "the probe fired its rocket to leave orbit for the moons",
    ],
    "cooking": [
        "simmer the sauce until it thickens then season the dish",
        "knead the dough then simmer the sauce for the dish",
        "sear the fillet in butter and finish the sauce",
        "whisk the eggs with butter for a silkier sauce",
        "roast the vegetables and fold butter into the dough",
        "fold the batter into the dough and season the dish",
    ],
}


def main():
    names = sorted(DOCS)
    docs = [Document(text, names.index(theme), names.index(theme))
            for theme in names for text in DOCS[theme]]
    corpus = Corpus(docs, names, names)
    train_part, _, test_part = textprep.split(corpus, ratios=(0.67, 0.0, 0.33),
                                              seed=5)
    vocab = textprep.build_vocabulary(train_part,
                                      stop_terms=textprep.stopwords(),
                                      min_df=1, max_df_ratio=0.9)
    print(f"{len(corpus)} documents, {len(vocab)} terms after filtering")

    k = len(names)
    x_tr = textprep.tfidf(train_part, vocab)
    y_tr = one_hot(train_part.class_ids(), k)
    x_te = textprep.tfidf(test_part, vocab)
    y_te = one_hot(test_part.class_ids(), k)

    variant = ModelVariant.parse("div-fro")
    config = SsnmfConfig(r=k, lam=10.0, max_iters=400, seed=3)
    model, _ = train(x_tr, y_tr, variant, config)
    s_te = transform(model, x_te, iters=400)
    acc = accuracy(y_te, predict(model, s_te))
    print(f"test accuracy with {variant.key}: {acc:.2f}\n")

    keywords = evalcluster.top_keywords(model.a_train, vocab, count=5)
    hard = evalcluster.hard_assign(s_te)
    for i, words in enumerate(keywords):
        group, p = evalcluster.topic_score(hard[i], y_te)
        print(f"topic {i:>3}  group {names[group]}  P={p:.4f}  {' '.join(words)}")


if __name__ == "__main__":
    main()
