package textproc

// stopList is a compact English stop word list tuned for microblog text:
// function words, auxiliaries, pronouns, common contractions with the
// apostrophe stripped (as the tokenizer does), and a handful of
// twitter-isms ("rt", "via") that carry no event information. Every
// Interner starts with these entered, so the tokenizer's one probe per
// token also answers the stop test.
var stopList = []string{
	"a", "about", "above", "after", "again", "against", "all", "also",
	"am", "an", "and", "any", "are", "arent", "as", "at",
	"be", "because", "been", "before", "being", "below", "between",
	"both", "but", "by",
	"can", "cant", "cannot", "could", "couldnt",
	"did", "didnt", "do", "does", "doesnt", "doing", "dont", "down",
	"during",
	"each", "else", "ever", "every",
	"few", "for", "from", "further",
	"get", "gets", "getting", "got", "go", "goes", "going", "gonna",
	"had", "hadnt", "has", "hasnt", "have", "havent", "having", "he",
	"hed", "hell", "her", "here", "heres", "hers", "herself", "hes",
	"him", "himself", "his", "how", "hows",
	"i", "id", "if", "ill", "im", "in", "into", "is", "isnt", "it",
	"its", "itself", "ive",
	"just",
	"know",
	"let", "lets", "like", "lol",
	"may", "me", "might", "more", "most", "much", "must", "mustnt",
	"my", "myself",
	"new", "no", "nor", "not", "now",
	"of", "off", "oh", "ok", "okay", "on", "once", "one", "only", "or",
	"other", "ought", "our", "ours", "ourselves", "out", "over", "own",
	"per", "please",
	"really", "rt",
	"said", "same", "say", "says", "see", "shant", "she", "shed",
	"shell", "shes", "should", "shouldnt", "so", "some", "still", "such",
	"than", "that", "thats", "the", "their", "theirs", "them",
	"themselves", "then", "there", "theres", "these", "they", "theyd",
	"theyll", "theyre", "theyve", "this", "those", "through", "till",
	"to", "too",
	"under", "until", "up", "upon", "us", "use",
	"very", "via",
	"want", "was", "wasnt", "we", "wed", "well", "were", "werent",
	"weve", "what", "whats", "when", "whens", "where", "wheres",
	"which", "while", "who", "whom", "whos", "why", "whys", "will",
	"with", "wont", "would", "wouldnt",
	"yeah", "yes", "yet", "you", "youd", "youll", "your", "youre",
	"yours", "yourself", "yourselves", "youve",
}

var stopWords = map[string]struct{}{}

func init() {
	for _, w := range stopList {
		stopWords[w] = struct{}{}
	}
}

// IsStopWordBytes reports whether the lower-cased keyword is a stop word,
// for callers without an Interner at hand (the compiler elides the
// string conversion for a direct map probe).
func IsStopWordBytes(w []byte) bool {
	_, ok := stopWords[string(w)]
	return ok
}
